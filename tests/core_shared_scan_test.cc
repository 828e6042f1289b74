// Chunk-major batched execution (shared chunk scans): the bit-identity
// sweep of the acceptance bar — batched-vs-per-query results must be
// byte-identical for every registered method, stop rule, SIMD backend, and
// thread count — plus detach semantics, duplicate-query dedup, the
// BatchSearcher constructor switch, the fused multi-query kernels against
// their single-query references, and the coalescing ledger.

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chunked_method_util.h"
#include "cluster/srtree_chunker.h"
#include "core/batch_searcher.h"
#include "core/chunk_index.h"
#include "core/search_method.h"
#include "core/searcher.h"
#include "descriptor/generator.h"
#include "descriptor/workload.h"
#include "geometry/kernels.h"
#include "storage/chunk_cache.h"
#include "util/logging.h"
#include "util/random.h"

namespace qvt {
namespace {

struct SharedScanFixture {
  MemEnv env;
  Collection collection;
  std::optional<ChunkIndex> index;
  Workload workload;

  explicit SharedScanFixture(size_t num_queries = 60, uint64_t seed = 33) {
    GeneratorConfig config;
    config.num_images = 40;
    config.descriptors_per_image = 25;
    config.num_modes = 8;
    config.seed = seed;
    collection = GenerateCollection(config);
    SrTreeChunker chunker(80);
    auto chunking = chunker.FormChunks(collection);
    QVT_CHECK(chunking.ok());
    auto built = ChunkIndex::Build(collection, *chunking, &env,
                                   ChunkIndexPaths::ForBase("idx"));
    QVT_CHECK(built.ok());
    index.emplace(std::move(built).value());
    Rng rng(seed + 1);
    workload = MakeDatasetQueries(collection, num_queries, &rng);
  }

  MethodContext Context() const {
    MethodContext context;
    context.collection = &collection;
    context.index = &*index;
    context.env = const_cast<MemEnv*>(&env);
    return context;
  }
};

/// Byte-identical comparison of two batches: neighbors (ids and the raw
/// bits of every distance) and the deterministic telemetry counters.
/// `compare_cost` additionally pins the cache-verdict-dependent figures
/// (model clocks, bytes/pages read) — exclude them when one side runs a
/// shared ChunkCache, whose verdicts are schedule-dependent by contract.
void ExpectByteIdentical(const std::vector<MethodResult>& shared,
                         const std::vector<MethodResult>& reference,
                         const std::string& label,
                         bool compare_cost = true) {
  ASSERT_EQ(shared.size(), reference.size()) << label;
  for (size_t q = 0; q < shared.size(); ++q) {
    const QueryTelemetry& a = shared[q].telemetry;
    const QueryTelemetry& b = reference[q].telemetry;
    EXPECT_EQ(a.chunks_read, b.chunks_read) << label << " query " << q;
    EXPECT_EQ(a.descriptors_scanned, b.descriptors_scanned)
        << label << " query " << q;
    EXPECT_EQ(a.candidates_examined, b.candidates_examined)
        << label << " query " << q;
    EXPECT_EQ(a.max_probe_rows, b.max_probe_rows) << label << " query " << q;
    EXPECT_EQ(a.exact, b.exact) << label << " query " << q;
    if (compare_cost) {
      EXPECT_EQ(a.model_micros, b.model_micros) << label << " query " << q;
      EXPECT_EQ(a.model_overlapped_micros, b.model_overlapped_micros)
          << label << " query " << q;
      EXPECT_EQ(a.bytes_read, b.bytes_read) << label << " query " << q;
    }
    ASSERT_EQ(shared[q].neighbors.size(), reference[q].neighbors.size())
        << label << " query " << q;
    for (size_t i = 0; i < shared[q].neighbors.size(); ++i) {
      EXPECT_EQ(shared[q].neighbors[i].id, reference[q].neighbors[i].id)
          << label << " query " << q << " rank " << i;
      EXPECT_EQ(std::memcmp(&shared[q].neighbors[i].distance,
                            &reference[q].neighbors[i].distance,
                            sizeof(double)),
                0)
          << label << " query " << q << " rank " << i;
    }
  }
}

struct BackendGuard {
  ~BackendGuard() { kernels::ResetBackendForTesting(); }
};

std::vector<kernels::Backend> SupportedBackends() {
  std::vector<kernels::Backend> backends;
  for (const kernels::Backend b :
       {kernels::Backend::kScalar, kernels::Backend::kSse2,
        kernels::Backend::kAvx2, kernels::Backend::kNeon}) {
    if (kernels::BackendSupported(b)) backends.push_back(b);
  }
  return backends;
}

// --- The acceptance-bar sweep: chunked, every stop rule x backend x -------
// --- thread count, shared vs the query-major per-query loop. --------------

TEST(SharedScanTest, ChunkedBitIdenticalAcrossStopRulesBackendsThreads) {
  SharedScanFixture fx(/*num_queries=*/60);
  const auto method = MakeChunkedMethod(&*fx.index);

  // A mid-scan time budget: half the exact model time of the first query,
  // so some queries detach mid-order while others run longer.
  auto probe = method->Search(fx.workload.Query(0), 10, StopRule::Exact());
  ASSERT_TRUE(probe.ok());
  const int64_t budget = probe->telemetry.model_micros / 2;
  ASSERT_GT(budget, 0);

  const struct {
    const char* name;
    StopRule rule;
  } rules[] = {
      {"exact", StopRule::Exact()},
      {"epsilon", StopRule::EpsilonApproximate(0.1)},
      {"max-chunks", StopRule::MaxChunks(3)},
      {"time-budget", StopRule::TimeBudget(budget)},
  };

  BackendGuard guard;
  for (const kernels::Backend backend : SupportedBackends()) {
    kernels::SetBackendForTesting(backend);
    for (const auto& r : rules) {
      BatchSearcher query_major(method.get(), 1, /*shared_scan=*/false);
      auto reference = query_major.SearchAll(fx.workload, 10, r.rule);
      ASSERT_TRUE(reference.ok());
      EXPECT_FALSE(reference->shared.enabled);

      for (const size_t threads : {size_t{1}, size_t{3}}) {
        BatchSearcher chunk_major(method.get(), threads);
        auto batch = chunk_major.SearchAll(fx.workload, 10, r.rule);
        ASSERT_TRUE(batch.ok());
        const std::string label =
            std::string(kernels::BackendName(backend)) + "/" + r.name + "/t" +
            std::to_string(threads);
        EXPECT_TRUE(batch->shared.enabled) << label;
        ExpectByteIdentical(batch->results, reference->results, label);
        // Every (chunk, query) pair the queries demanded was served.
        EXPECT_EQ(batch->shared.chunk_attachments,
                  batch->totals.chunks_read)
            << label;
        EXPECT_LE(batch->shared.chunk_fetches,
                  batch->shared.chunk_attachments)
            << label;
      }
    }
  }
}

// Exact stops fire at different rounds for different queries (mid-scan
// detach): chunks_read must vary across the batch while results stay
// identical, and the schedule must actually coalesce fetches.
TEST(SharedScanTest, ExactStopsDetachQueriesMidSchedule) {
  SharedScanFixture fx(/*num_queries=*/60);
  const auto method = MakeChunkedMethod(&*fx.index);
  BatchSearcher chunk_major(method.get(), 1);
  auto batch = chunk_major.SearchAll(fx.workload, 5, StopRule::Exact());
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(batch->shared.enabled);

  uint64_t min_chunks = UINT64_MAX;
  uint64_t max_chunks = 0;
  for (const MethodResult& r : batch->results) {
    min_chunks = std::min(min_chunks, r.telemetry.chunks_read);
    max_chunks = std::max(max_chunks, r.telemetry.chunks_read);
  }
  EXPECT_LT(min_chunks, max_chunks)
      << "expected stop-rule detach at different rounds";
  EXPECT_GT(batch->shared.chunks_coalesced(), 0u);
  EXPECT_GT(batch->shared.rows_scan_shared, 0u);
  // Histogram totals the schedule's chunk passes.
  uint64_t histogram_total = 0;
  for (size_t b = 0; b < SharedScanStats::kHistogramBuckets; ++b) {
    histogram_total += batch->shared.coscan_histogram[b];
  }
  EXPECT_EQ(histogram_total, batch->shared.chunk_fetches);
}

// A shared ChunkCache: neighbors and chunks_read stay pinned (only cache
// verdicts and hence modeled charges may shift, as between thread counts),
// and each query's verdicts balance.
TEST(SharedScanTest, SharedCacheKeepsAnswersIdentical) {
  SharedScanFixture fx(/*num_queries=*/60);
  const auto plain = MakeChunkedMethod(&*fx.index);
  ChunkCache cache(256, /*num_shards=*/4);
  const auto cached = MakeChunkedMethod(&*fx.index, &cache);

  BatchSearcher query_major(plain.get(), 1, /*shared_scan=*/false);
  auto reference = query_major.SearchAll(fx.workload, 10, StopRule::Exact());
  ASSERT_TRUE(reference.ok());

  BatchSearcher chunk_major(cached.get(), 3);
  auto batch = chunk_major.SearchAll(fx.workload, 10, StopRule::Exact());
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(batch->shared.enabled);
  ExpectByteIdentical(batch->results, reference->results, "cached",
                      /*compare_cost=*/false);
  for (size_t q = 0; q < batch->results.size(); ++q) {
    const QueryTelemetry& t = batch->results[q].telemetry;
    EXPECT_EQ(t.cache_hits + t.cache_misses, t.chunks_read) << "query " << q;
  }
}

// The merged prefetch streams report through the shared ledger and the
// batch totals; the ledger balances and per-query counters stay zero.
TEST(SharedScanTest, MergedPrefetchStreamsReportThroughSharedLedger) {
  SharedScanFixture fx(/*num_queries=*/40);
  PrefetcherOptions deep;
  deep.depth = 4;
  const auto pipelined = MakeChunkedMethod(&*fx.index, nullptr, deep);

  BatchSearcher chunk_major(pipelined.get(), 1);
  auto batch = chunk_major.SearchAll(fx.workload, 10, StopRule::Exact());
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(batch->shared.enabled);
  const PrefetchStats& p = batch->shared.prefetch;
  EXPECT_GT(p.issued, 0u);
  EXPECT_EQ(p.issued, p.used + p.wasted + p.cancelled);
  EXPECT_EQ(batch->totals.prefetch.issued, p.issued);
  for (const MethodResult& r : batch->results) {
    EXPECT_EQ(r.telemetry.prefetch.issued, 0u);
  }
}

// --- Duplicate-query dedup ------------------------------------------------

TEST(SharedScanTest, DuplicateQueriesShareOnePlanAndScan) {
  SharedScanFixture fx(/*num_queries=*/10);
  const auto method = MakeChunkedMethod(&*fx.index);

  // A replayed-trace workload: each distinct query appears three times.
  Workload replay;
  replay.dim = fx.workload.dim;
  for (size_t copy = 0; copy < 3; ++copy) {
    replay.queries.insert(replay.queries.end(), fx.workload.queries.begin(),
                          fx.workload.queries.end());
  }
  ASSERT_EQ(replay.num_queries(), 3 * fx.workload.num_queries());

  BatchSearcher query_major(method.get(), 1, /*shared_scan=*/false);
  auto reference = query_major.SearchAll(replay, 10, StopRule::Exact());
  ASSERT_TRUE(reference.ok());

  BatchSearcher chunk_major(method.get(), 1);
  auto batch = chunk_major.SearchAll(replay, 10, StopRule::Exact());
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(batch->shared.enabled);
  EXPECT_EQ(batch->shared.dedup_hits, 2 * fx.workload.num_queries());
  EXPECT_EQ(batch->shared.queries, fx.workload.num_queries());
  // Followers copy the leader's record verbatim — results and telemetry
  // are still per-slot identical to the per-query loop.
  ExpectByteIdentical(batch->results, reference->results, "dedup");
}

// --- The constructor switch ----------------------------------------------

// shared_scan = false forces query-major execution even where the method
// could coalesce, and the two modes answer byte-identically.
TEST(SharedScanTest, ConstructorSwitchDisablesSharedScan) {
  SharedScanFixture fx(/*num_queries=*/20);
  const auto method = MakeChunkedMethod(&*fx.index);
  BatchSearcher off(method.get(), 4, /*shared_scan=*/false);
  auto disabled = off.SearchAll(fx.workload, 10, StopRule::Exact());
  ASSERT_TRUE(disabled.ok());
  EXPECT_FALSE(disabled->shared.enabled);
  EXPECT_EQ(disabled->shared.chunk_fetches, 0u);

  BatchSearcher on(method.get(), 1);  // shared on by default
  auto enabled = on.SearchAll(fx.workload, 10, StopRule::Exact());
  ASSERT_TRUE(enabled.ok());
  EXPECT_TRUE(enabled->shared.enabled);
  ExpectByteIdentical(enabled->results, disabled->results, "switch");
}

// --- Every registered method: shared batches must equal query-major -------
// --- batches whether or not the method implements SearchShared. -----------

TEST(SharedScanTest, AllRegisteredMethodsMatchQueryMajorBatches) {
  SharedScanFixture fx(/*num_queries=*/24);
  for (const MethodInfo& info : MethodRegistry::Global().List()) {
    auto method = MethodRegistry::Global().Create(info.name, fx.Context());
    ASSERT_TRUE(method.ok()) << info.name << ": " << method.status().message();
    ASSERT_TRUE((*method)->Prepare().ok()) << info.name;

    BatchSearcher query_major(method->get(), 1, /*shared_scan=*/false);
    auto reference =
        query_major.SearchAll(fx.workload, 10, StopRule::Exact());
    ASSERT_TRUE(reference.ok()) << info.name;

    BatchSearcher chunk_major(method->get(), 1);
    auto batch = chunk_major.SearchAll(fx.workload, 10, StopRule::Exact());
    ASSERT_TRUE(batch.ok()) << info.name;
    EXPECT_EQ(batch->shared.enabled, (*method)->SupportsSharedScan())
        << info.name;
    ExpectByteIdentical(batch->results, reference->results, info.name);
  }
}

// pq's shared path covers all three refine shapes: chunk-file rerank
// (merged schedule), collection gather (no index), and ADC-only.
TEST(SharedScanTest, PqSharedMatchesPerQueryAcrossRerankModes) {
  SharedScanFixture fx(/*num_queries=*/24);
  const struct {
    const char* label;
    const char* params;
    bool with_index;
  } cases[] = {
      {"chunk-rerank", "rerank=32,iters=4", true},
      {"gather-rerank", "rerank=32,iters=4", false},
      {"adc-only", "rerank=0,iters=4", true},
  };
  for (const auto& c : cases) {
    MethodContext context = fx.Context();
    if (!c.with_index) context.index = nullptr;
    auto method = MethodRegistry::Global().Create("pq", context, c.params);
    ASSERT_TRUE(method.ok()) << c.label;
    ASSERT_TRUE((*method)->Prepare().ok()) << c.label;
    ASSERT_TRUE((*method)->SupportsSharedScan()) << c.label;

    BatchSearcher query_major(method->get(), 1, /*shared_scan=*/false);
    auto reference =
        query_major.SearchAll(fx.workload, 10, StopRule::Exact());
    ASSERT_TRUE(reference.ok()) << c.label;

    for (const size_t threads : {size_t{1}, size_t{3}}) {
      BatchSearcher chunk_major(method->get(), threads);
      auto batch = chunk_major.SearchAll(fx.workload, 10, StopRule::Exact());
      ASSERT_TRUE(batch.ok()) << c.label;
      EXPECT_TRUE(batch->shared.enabled) << c.label;
      EXPECT_GT(batch->shared.rows_scan_shared, 0u) << c.label;
      ExpectByteIdentical(batch->results, reference->results,
                          std::string(c.label) + "/t" +
                              std::to_string(threads));
    }
  }
}

// --- Fused multi-query kernels vs their single-query references -----------

TEST(SharedScanTest, FusedKernelsMatchSingleQueryKernelsPerBackend) {
  Rng rng(77);
  const size_t dim = 24;
  const size_t count = 300;  // not a multiple of the fused row block
  const size_t nq = 5;
  std::vector<float> base(count * dim);
  for (float& v : base) v = static_cast<float>(rng.UniformDouble(-1.0, 1.0));
  // Queries originate as floats (as in the searcher) and are widened to
  // doubles for the fused kernels — exactly the widening the single-query
  // float overloads perform, so both paths see identical values.
  std::vector<std::vector<float>> float_queries(nq);
  std::vector<std::vector<double>> queries(nq);
  std::vector<const double*> query_ptrs(nq);
  std::vector<double> thresholds(nq);
  for (size_t q = 0; q < nq; ++q) {
    float_queries[q].resize(dim);
    for (float& v : float_queries[q]) {
      v = static_cast<float>(rng.UniformDouble(-1.0, 1.0));
    }
    queries[q].assign(float_queries[q].begin(), float_queries[q].end());
    query_ptrs[q] = queries[q].data();
    // Mixed pruning pressure, +inf included.
    thresholds[q] = q == 0 ? std::numeric_limits<double>::infinity()
                           : 2.0 + static_cast<double>(q);
  }

  BackendGuard guard;
  for (const kernels::Backend backend : SupportedBackends()) {
    kernels::SetBackendForTesting(backend);
    std::vector<std::vector<double>> fused(nq), single(nq);
    std::vector<double*> outs(nq);
    for (size_t q = 0; q < nq; ++q) {
      fused[q].resize(count);
      single[q].resize(count);
      outs[q] = fused[q].data();
    }

    kernels::MultiQueryBatchSquaredDistance(base.data(), count, dim,
                                            query_ptrs.data(), nq,
                                            outs.data());
    for (size_t q = 0; q < nq; ++q) {
      kernels::BatchSquaredDistance(base.data(), count, dim,
                                    std::span<const double>(queries[q]),
                                    single[q].data());
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(std::memcmp(&fused[q][i], &single[q][i], sizeof(double)), 0)
            << kernels::BackendName(backend) << " plain q" << q << " row "
            << i;
      }
    }

    // Abandoning variant: same backend, same row pairing (the fused row
    // block is a multiple of every backend's lane group), so both the
    // completed values AND the abandon pattern must coincide.
    kernels::MultiQueryBatchSquaredDistanceAbandon(
        base.data(), count, dim, query_ptrs.data(), thresholds.data(), nq,
        outs.data());
    for (size_t q = 0; q < nq; ++q) {
      kernels::BatchSquaredDistanceAbandon(
          base.data(), count, dim,
          std::span<const float>(float_queries[q]), thresholds[q],
          single[q].data());
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(std::memcmp(&fused[q][i], &single[q][i], sizeof(double)), 0)
            << kernels::BackendName(backend) << " abandon q" << q << " row "
            << i;
      }
    }
  }
}

TEST(SharedScanTest, FusedAdcKernelMatchesSingleQueryAdc) {
  Rng rng(91);
  const size_t m = 8;
  const size_t ksub = 16;
  const size_t count = 300;
  const size_t nq = 4;
  std::vector<uint8_t> codes(count * m);
  for (uint8_t& c : codes) c = static_cast<uint8_t>(rng.Uniform(ksub));
  std::vector<std::vector<double>> tables(nq);
  std::vector<const double*> table_ptrs(nq);
  std::vector<double> thresholds(nq);
  for (size_t q = 0; q < nq; ++q) {
    tables[q].resize(m * ksub);
    for (double& v : tables[q]) v = rng.UniformDouble(0.0, 1.0);
    table_ptrs[q] = tables[q].data();
    thresholds[q] = q == 0 ? std::numeric_limits<double>::infinity()
                           : 2.0 + 0.5 * static_cast<double>(q);
  }

  BackendGuard guard;
  for (const kernels::Backend backend : SupportedBackends()) {
    kernels::SetBackendForTesting(backend);
    std::vector<std::vector<double>> fused(nq);
    std::vector<double*> outs(nq);
    for (size_t q = 0; q < nq; ++q) {
      fused[q].resize(count);
      outs[q] = fused[q].data();
    }
    kernels::MultiQueryAdcScanAbandon(codes.data(), count, m, ksub,
                                      table_ptrs.data(), thresholds.data(),
                                      nq, outs.data());
    for (size_t q = 0; q < nq; ++q) {
      std::vector<double> single(count);
      kernels::AdcScanAbandon(codes.data(), count, m, ksub, tables[q].data(),
                              thresholds[q], single.data());
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(std::memcmp(&fused[q][i], &single[i], sizeof(double)), 0)
            << kernels::BackendName(backend) << " q" << q << " row " << i;
      }
    }
  }
}

// Direct Searcher::SearchShared argument validation.
TEST(SharedScanTest, SearchSharedValidatesArguments) {
  SharedScanFixture fx(/*num_queries=*/4);
  Searcher searcher(&*fx.index, DiskCostModel());
  std::vector<std::span<const float>> queries;
  for (size_t q = 0; q < fx.workload.num_queries(); ++q) {
    queries.push_back(fx.workload.Query(q));
  }
  auto bad_k = searcher.SearchShared(queries, 0, StopRule::Exact());
  EXPECT_TRUE(bad_k.status().IsInvalidArgument());

  const std::vector<float> short_query(3, 0.0f);
  std::vector<std::span<const float>> mixed = queries;
  mixed.push_back(short_query);
  auto bad_dim = searcher.SearchShared(mixed, 5, StopRule::Exact());
  EXPECT_TRUE(bad_dim.status().IsInvalidArgument());
}

}  // namespace
}  // namespace qvt
