#include "core/batch_searcher.h"

#include <gtest/gtest.h>

#include "bench_util/runner.h"
#include "chunked_method_util.h"
#include "cluster/round_robin.h"
#include "cluster/srtree_chunker.h"
#include "core/exact_scan.h"
#include "descriptor/generator.h"
#include "descriptor/workload.h"
#include "storage/chunk_cache.h"
#include "util/logging.h"
#include "util/random.h"

namespace qvt {
namespace {

struct BatchFixture {
  MemEnv env;
  Collection collection;
  std::optional<ChunkIndex> index;
  Workload workload;

  explicit BatchFixture(size_t num_queries = 120, uint64_t seed = 21) {
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
};

// Compares batch results against a directly-collected serial reference of
// Searcher::Search results — the telemetry counters as well as the
// neighbors.
void ExpectIdenticalResults(const std::vector<MethodResult>& a,
                            const std::vector<MethodResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t q = 0; q < a.size(); ++q) {
    const QueryTelemetry& ta = a[q].telemetry;
    const QueryTelemetry& tb = b[q].telemetry;
    EXPECT_EQ(ta.chunks_read, tb.chunks_read) << "query " << q;
    EXPECT_EQ(ta.descriptors_scanned, tb.descriptors_scanned)
        << "query " << q;
    EXPECT_EQ(ta.model_micros, tb.model_micros) << "query " << q;
    EXPECT_EQ(ta.model_overlapped_micros, tb.model_overlapped_micros)
        << "query " << q;
    EXPECT_EQ(ta.exact, tb.exact) << "query " << q;
    ASSERT_EQ(a[q].neighbors.size(), b[q].neighbors.size()) << "query " << q;
    for (size_t i = 0; i < a[q].neighbors.size(); ++i) {
      EXPECT_EQ(a[q].neighbors[i].id, b[q].neighbors[i].id)
          << "query " << q << " rank " << i;
      EXPECT_DOUBLE_EQ(a[q].neighbors[i].distance, b[q].neighbors[i].distance)
          << "query " << q << " rank " << i;
    }
  }
}

// The ISSUE's headline determinism test: 8 worker threads must return
// bit-identical neighbors, chunks_read, and modeled times to the serial
// searcher, over >= 100 queries.
TEST(BatchSearcherTest, EightThreadsBitIdenticalToSerial) {
  BatchFixture fx(/*num_queries=*/120);
  Searcher searcher(&*fx.index, DiskCostModel());

  // Reference: the plain serial loop over Searcher::Search.
  std::vector<MethodResult> serial;
  for (size_t q = 0; q < fx.workload.num_queries(); ++q) {
    auto result =
        searcher.Search(fx.workload.Query(q), 10, StopRule::Exact());
    ASSERT_TRUE(result.ok());
    serial.push_back(std::move(result).value());
  }

  const auto method = MakeChunkedMethod(&*fx.index);
  BatchSearcher threaded(method.get(), 8);
  auto batch = threaded.SearchAll(fx.workload, 10, StopRule::Exact());
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->num_threads, 8u);
  ExpectIdenticalResults(batch->results, serial);
}

TEST(BatchSearcherTest, SingleThreadMatchesSerialLoop) {
  BatchFixture fx(/*num_queries=*/40);
  Searcher searcher(&*fx.index, DiskCostModel());

  std::vector<MethodResult> serial;
  for (size_t q = 0; q < fx.workload.num_queries(); ++q) {
    auto result = searcher.Search(fx.workload.Query(q), 5,
                                  StopRule::MaxChunks(3));
    ASSERT_TRUE(result.ok());
    serial.push_back(std::move(result).value());
  }

  const auto method = MakeChunkedMethod(&*fx.index);
  BatchSearcher batch_searcher(method.get(), 1);
  auto batch = batch_searcher.SearchAll(fx.workload, 5, StopRule::MaxChunks(3));
  ASSERT_TRUE(batch.ok());
  ExpectIdenticalResults(batch->results, serial);
}

TEST(BatchSearcherTest, ResultsStayInInputOrder) {
  BatchFixture fx(/*num_queries=*/100);
  const auto method = MakeChunkedMethod(&*fx.index);
  BatchSearcher threaded(method.get(), 8);
  auto batch = threaded.SearchAll(fx.workload, 3, StopRule::Exact());
  ASSERT_TRUE(batch.ok());
  // Dataset queries are collection members: result slot q must hold the
  // query q whose own descriptor sits at distance 0.
  for (size_t q = 0; q < fx.workload.num_queries(); ++q) {
    ASSERT_FALSE(batch->results[q].neighbors.empty()) << "query " << q;
    EXPECT_DOUBLE_EQ(batch->results[q].neighbors[0].distance, 0.0)
        << "query " << q;
  }
}

TEST(BatchSearcherTest, SharedCacheKeepsAnswersIdentical) {
  BatchFixture fx(/*num_queries=*/100);
  const auto plain = MakeChunkedMethod(&*fx.index);
  ChunkCache cache(256, /*num_shards=*/4);  // small: eviction under load
  const auto cached = MakeChunkedMethod(&*fx.index, &cache);

  BatchSearcher serial(plain.get(), 1);
  auto reference = serial.SearchAll(fx.workload, 10, StopRule::Exact());
  ASSERT_TRUE(reference.ok());

  BatchSearcher threaded(cached.get(), 8);
  auto batch = threaded.SearchAll(fx.workload, 10, StopRule::Exact());
  ASSERT_TRUE(batch.ok());

  // Neighbors and chunks_read must not depend on cache hits (only the
  // modeled charge does, which a shared cache makes schedule-dependent).
  for (size_t q = 0; q < fx.workload.num_queries(); ++q) {
    const MethodResult& a = batch->results[q];
    const MethodResult& b = reference->results[q];
    EXPECT_EQ(a.telemetry.chunks_read, b.telemetry.chunks_read)
        << "query " << q;
    ASSERT_EQ(a.neighbors.size(), b.neighbors.size()) << "query " << q;
    for (size_t i = 0; i < a.neighbors.size(); ++i) {
      EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id)
          << "query " << q << " rank " << i;
    }
    // The cached run's telemetry must balance its verdicts.
    EXPECT_EQ(a.telemetry.cache_hits + a.telemetry.cache_misses,
              a.telemetry.chunks_read)
        << "query " << q;
  }
  const ChunkCacheStats stats = cache.Stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
  EXPECT_LE(cache.used_pages(), 256u);
}

// Pipelined fetches under a concurrent batch: every worker thread runs its
// queries through PrefetchStreams against one shared prefetcher and cache.
// Neighbors and chunks_read must match the synchronous depth-0 serial
// reference exactly (modeled time is excluded: with a *shared* cache it
// depends on which thread warmed a chunk first, prefetch or not).
TEST(BatchSearcherTest, PrefetchingThreadsMatchSynchronousSerial) {
  BatchFixture fx(/*num_queries=*/100);
  PrefetcherOptions no_prefetch;
  no_prefetch.depth = 0;
  const auto sync = MakeChunkedMethod(&*fx.index, nullptr, no_prefetch);

  PrefetcherOptions deep;
  deep.depth = 4;
  deep.io_threads = 4;
  ChunkCache cache(256, /*num_shards=*/4);
  const auto pipelined = MakeChunkedMethod(&*fx.index, &cache, deep);

  PrefetchStats total;
  for (const StopRule& rule : {StopRule::Exact(), StopRule::MaxChunks(3)}) {
    BatchSearcher serial(sync.get(), 1);
    auto reference = serial.SearchAll(fx.workload, 10, rule);
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(reference->totals.prefetch.issued, 0u);  // fully synchronous

    BatchSearcher threaded(pipelined.get(), 8);
    auto batch = threaded.SearchAll(fx.workload, 10, rule);
    ASSERT_TRUE(batch.ok());

    for (size_t q = 0; q < fx.workload.num_queries(); ++q) {
      const MethodResult& a = batch->results[q];
      const MethodResult& b = reference->results[q];
      EXPECT_EQ(a.telemetry.chunks_read, b.telemetry.chunks_read)
          << "query " << q;
      EXPECT_EQ(a.telemetry.exact, b.telemetry.exact) << "query " << q;
      ASSERT_EQ(a.neighbors.size(), b.neighbors.size()) << "query " << q;
      for (size_t i = 0; i < a.neighbors.size(); ++i) {
        EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id)
            << "query " << q << " rank " << i;
        EXPECT_EQ(a.neighbors[i].distance, b.neighbors[i].distance)
            << "query " << q << " rank " << i;
      }
    }
    // The batch aggregates every stream's counters, and the ledger balances.
    const PrefetchStats& p = batch->totals.prefetch;
    EXPECT_EQ(p.issued, p.used + p.wasted + p.cancelled);
    total += p;
  }
  // The cold first pass must have pushed real reads through the pipeline.
  EXPECT_GT(total.issued, 0u);
}

TEST(BatchSearcherTest, PercentilesAreOrdered) {
  BatchFixture fx(/*num_queries=*/50);
  const auto method = MakeChunkedMethod(&*fx.index);
  BatchSearcher batch_searcher(method.get(), 4);
  auto batch = batch_searcher.SearchAll(fx.workload, 5, StopRule::Exact());
  ASSERT_TRUE(batch.ok());
  EXPECT_LE(batch->wall.p50, batch->wall.p95);
  EXPECT_LE(batch->wall.p95, batch->wall.p99);
  EXPECT_LE(batch->wall.p99, batch->wall.max);
  EXPECT_LE(batch->model.p50, batch->model.p95);
  EXPECT_LE(batch->model.p95, batch->model.p99);
  EXPECT_LE(batch->model.p99, batch->model.max);
  EXPECT_GT(batch->model.p50, 0);
  EXPECT_GE(batch->batch_wall_micros, 0);
}

TEST(BatchSearcherTest, PropagatesPerQueryErrors) {
  BatchFixture fx(/*num_queries=*/10);
  const auto method = MakeChunkedMethod(&*fx.index);
  BatchSearcher batch_searcher(method.get(), 4);
  auto bad = batch_searcher.SearchAll(fx.workload, 0, StopRule::Exact());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
}

TEST(BatchSearcherTest, EmptyWorkloadSucceeds) {
  BatchFixture fx(/*num_queries=*/5);
  const auto method = MakeChunkedMethod(&*fx.index);
  BatchSearcher batch_searcher(method.get(), 4);
  Workload empty;
  empty.dim = fx.workload.dim;
  auto batch = batch_searcher.SearchAll(empty, 5, StopRule::Exact());
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->results.empty());
  // Regression: aggregating a zero-query batch must not abort in the
  // percentile path (SampleStats used to QVT_CHECK on empty input); the
  // latency summary degrades to all-zero defaults instead.
  EXPECT_EQ(batch->wall.p50, 0);
  EXPECT_EQ(batch->wall.p99, 0);
  EXPECT_EQ(batch->wall.max, 0);
  EXPECT_EQ(batch->wall.mean, 0.0);
  EXPECT_EQ(batch->model.p50, 0);
  EXPECT_EQ(batch->model.max, 0);
}

// ---------------------------------------------------------------------------
// bench_util wiring
// ---------------------------------------------------------------------------

TEST(RunMethodBatchTest, ThreadCountDoesNotChangeDeterministicMetrics) {
  BatchFixture fx(/*num_queries=*/100);
  const auto method = MakeChunkedMethod(&*fx.index);
  const GroundTruth truth =
      GroundTruth::Compute(fx.collection, fx.workload, 10);

  auto serial = RunMethodBatch(*method, fx.workload, &truth, 10,
                               StopRule::Exact(), 1);
  auto threaded = RunMethodBatch(*method, fx.workload, &truth, 10,
                                 StopRule::Exact(), 8);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(threaded.ok());
  EXPECT_EQ(serial->num_threads, 1u);
  EXPECT_EQ(threaded->num_threads, 8u);
  EXPECT_DOUBLE_EQ(serial->mean_chunks_read, threaded->mean_chunks_read);
  EXPECT_DOUBLE_EQ(serial->mean_final_precision,
                   threaded->mean_final_precision);
  EXPECT_DOUBLE_EQ(serial->mean_final_precision, 1.0);  // exact stop rule
  EXPECT_EQ(serial->model.p50, threaded->model.p50);
  EXPECT_EQ(serial->model.p99, threaded->model.p99);
}

TEST(RunMethodBatchTest, RejectsMismatchedTruth) {
  BatchFixture fx(/*num_queries=*/10);
  const auto method = MakeChunkedMethod(&*fx.index);
  const GroundTruth truth = GroundTruth::Compute(fx.collection, fx.workload, 5);
  auto report = RunMethodBatch(*method, fx.workload, &truth, 10,
                               StopRule::Exact(), 2);
  EXPECT_TRUE(report.status().IsInvalidArgument());
}

}  // namespace
}  // namespace qvt
