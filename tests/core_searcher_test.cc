#include "core/searcher.h"

#include <gtest/gtest.h>

#include "cluster/round_robin.h"
#include "cluster/srtree_chunker.h"
#include "core/exact_scan.h"
#include "descriptor/generator.h"
#include "descriptor/workload.h"
#include "geometry/kernels.h"
#include "geometry/vec.h"
#include "util/logging.h"
#include "util/random.h"

namespace qvt {
namespace {

Collection TestCollection(uint64_t seed = 21) {
  GeneratorConfig config;
  config.num_images = 40;
  config.descriptors_per_image = 25;
  config.num_modes = 8;
  config.seed = seed;
  return GenerateCollection(config);
}

struct IndexFixture {
  MemEnv env;
  Collection collection;
  std::optional<ChunkIndex> index;

  explicit IndexFixture(Chunker* chunker, uint64_t seed = 21)
      : collection(TestCollection(seed)) {
    auto chunking = chunker->FormChunks(collection);
    QVT_CHECK(chunking.ok());
    auto built = ChunkIndex::Build(collection, *chunking, &env,
                                   ChunkIndexPaths::ForBase("idx"));
    QVT_CHECK(built.ok());
    index.emplace(std::move(built).value());
  }
};

TEST(SearcherTest, ExactSearchMatchesSequentialScan) {
  SrTreeChunker chunker(80);
  IndexFixture fx(&chunker);
  Searcher searcher(&*fx.index, DiskCostModel());

  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<float> query(kDescriptorDim);
    for (auto& x : query) x = static_cast<float>(rng.UniformDouble(20, 80));

    auto result = searcher.Search(query, 10, StopRule::Exact());
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->telemetry.exact);
    const auto truth = ExactScan(fx.collection, query, 10);
    ASSERT_EQ(result->neighbors.size(), 10u);
    for (size_t i = 0; i < 10; ++i) {
      EXPECT_NEAR(result->neighbors[i].distance, truth[i].distance, 1e-6);
    }
  }
}

TEST(SearcherTest, ExactStopReadsFewerChunksThanAll) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  Searcher searcher(&*fx.index, DiskCostModel());

  // A dataset query sits inside a chunk; the exact search should prune.
  const auto query = fx.collection.Vector(100);
  auto result = searcher.Search(query, 5, StopRule::Exact());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->telemetry.exact);
  EXPECT_LT(result->telemetry.chunks_read, fx.index->num_chunks());
  EXPECT_GT(result->telemetry.chunks_read, 0u);
  // The query itself is its own nearest neighbor.
  EXPECT_DOUBLE_EQ(result->neighbors[0].distance, 0.0);
}

TEST(SearcherTest, MaxChunksStopRespected) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  Searcher searcher(&*fx.index, DiskCostModel());

  const auto query = fx.collection.Vector(0);
  for (size_t budget : {1u, 3u, 7u}) {
    auto result = searcher.Search(query, 30, StopRule::MaxChunks(budget));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->telemetry.chunks_read, std::min<size_t>(budget,
                                                    fx.index->num_chunks()));
    EXPECT_FALSE(result->telemetry.exact);
  }
}

TEST(SearcherTest, ZeroChunkBudgetReturnsEmpty) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  Searcher searcher(&*fx.index, DiskCostModel());
  auto result =
      searcher.Search(fx.collection.Vector(0), 5, StopRule::MaxChunks(0));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->telemetry.chunks_read, 0u);
  EXPECT_TRUE(result->neighbors.empty());
}

TEST(SearcherTest, TimeBudgetStopsEarly) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  Searcher searcher(&*fx.index, DiskCostModel());

  const auto query = fx.collection.Vector(50);
  // Zero budget: the model time after index scan alone exceeds it.
  auto tiny = searcher.Search(query, 30, StopRule::TimeBudget(0));
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ(tiny->telemetry.chunks_read, 0u);

  // Generous budget: search reads chunks.
  auto roomy = searcher.Search(query, 30,
                               StopRule::TimeBudget(60LL * 1000 * 1000));
  ASSERT_TRUE(roomy.ok());
  EXPECT_GT(roomy->telemetry.chunks_read, 0u);
}

TEST(SearcherTest, TimeBudgetIsMonotoneInChunksRead) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  Searcher searcher(&*fx.index, DiskCostModel());
  const auto query = fx.collection.Vector(7);

  size_t last_chunks = 0;
  for (int64_t budget_ms : {20, 60, 200, 2000}) {
    auto result =
        searcher.Search(query, 30, StopRule::TimeBudget(budget_ms * 1000));
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result->telemetry.chunks_read, last_chunks);
    last_chunks = result->telemetry.chunks_read;
  }
}

TEST(SearcherTest, ObserverSeesMonotoneProgress) {
  RoundRobinChunker chunker(50);
  IndexFixture fx(&chunker);
  Searcher searcher(&*fx.index, DiskCostModel());

  size_t calls = 0;
  int64_t last_model = 0;
  uint64_t last_descriptors = 0;
  const SearchObserver observer = [&](const SearchProgress& progress) {
    ++calls;
    EXPECT_EQ(progress.chunks_read, calls);
    EXPECT_GT(progress.model_elapsed_micros, last_model);
    EXPECT_GT(progress.descriptors_processed, last_descriptors);
    EXPECT_NE(progress.result, nullptr);
    last_model = progress.model_elapsed_micros;
    last_descriptors = progress.descriptors_processed;
  };
  auto result = searcher.Search(fx.collection.Vector(3), 10,
                                StopRule::Exact(), observer);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(calls, result->telemetry.chunks_read);
}

TEST(SearcherTest, ModelTimeIncludesIndexScan) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  DiskCostModel model;
  Searcher searcher(&*fx.index, model);
  auto result =
      searcher.Search(fx.collection.Vector(0), 5, StopRule::MaxChunks(0));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->telemetry.model_micros,
            model.IndexScanMicros(fx.index->num_chunks()));
}

TEST(SearcherTest, InvalidArgumentsRejected) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  Searcher searcher(&*fx.index, DiskCostModel());
  EXPECT_TRUE(searcher.Search(fx.collection.Vector(0), 0, StopRule::Exact())
                  .status()
                  .IsInvalidArgument());
  std::vector<float> wrong_dim(7, 0.0f);
  EXPECT_TRUE(searcher.Search(wrong_dim, 5, StopRule::Exact())
                  .status()
                  .IsInvalidArgument());
}

TEST(SearcherTest, RangeSearchMatchesBruteForce) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  Searcher searcher(&*fx.index, DiskCostModel());

  Rng rng(99);
  for (int trial = 0; trial < 8; ++trial) {
    const size_t pos = rng.Uniform(fx.collection.size());
    const double radius = rng.UniformDouble(1.0, 12.0);
    auto result = searcher.SearchRange(fx.collection.Vector(pos), radius,
                                       StopRule::Exact());
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->telemetry.exact);

    size_t expected = 0;
    for (size_t i = 0; i < fx.collection.size(); ++i) {
      if (vec::Distance(fx.collection.Vector(i),
                        fx.collection.Vector(pos)) <= radius) {
        ++expected;
      }
    }
    EXPECT_EQ(result->neighbors.size(), expected) << "radius " << radius;
    for (size_t i = 1; i < result->neighbors.size(); ++i) {
      EXPECT_GE(result->neighbors[i].distance,
                result->neighbors[i - 1].distance);
    }
    // The bound-based pruning must save reads for small balls.
    EXPECT_LE(result->telemetry.chunks_read, fx.index->num_chunks());
  }
}

TEST(SearcherTest, ApproximateRangeIsSubset) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  Searcher searcher(&*fx.index, DiskCostModel());
  const auto query = fx.collection.Vector(33);
  const double radius = 8.0;

  auto exact = searcher.SearchRange(query, radius, StopRule::Exact());
  auto approx = searcher.SearchRange(query, radius, StopRule::MaxChunks(2));
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(approx.ok());
  EXPECT_FALSE(approx->telemetry.exact);
  EXPECT_LE(approx->neighbors.size(), exact->neighbors.size());
  // Every approximate hit is a true hit.
  for (const Neighbor& a : approx->neighbors) {
    bool found = false;
    for (const Neighbor& e : exact->neighbors) {
      if (e.id == a.id) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found);
  }
}

// The kernel layer's determinism contract at the API that matters: the same
// queries through the forced-scalar path and through the best SIMD backend
// must return bit-identical results (ids, distances, chunks read,
// modeled time), so QVT_SIMD=off is purely a speed knob.
TEST(SearcherTest, SimdAndScalarBackendsReturnIdenticalResults) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  Searcher searcher(&*fx.index, DiskCostModel());
  const kernels::Backend best = kernels::ActiveBackend();

  Rng rng(321);
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<float> query(kDescriptorDim);
    for (auto& x : query) x = static_cast<float>(rng.UniformDouble(20, 80));
    const double radius = rng.UniformDouble(2.0, 12.0);

    kernels::SetBackendForTesting(kernels::Backend::kScalar);
    auto knn_scalar = searcher.Search(query, 10, StopRule::Exact());
    auto range_scalar = searcher.SearchRange(query, radius, StopRule::Exact());
    kernels::SetBackendForTesting(best);
    auto knn_simd = searcher.Search(query, 10, StopRule::Exact());
    auto range_simd = searcher.SearchRange(query, radius, StopRule::Exact());
    kernels::ResetBackendForTesting();

    ASSERT_TRUE(knn_scalar.ok() && knn_simd.ok());
    ASSERT_TRUE(range_scalar.ok() && range_simd.ok());
    for (auto [a, b] : {std::pair{&*knn_scalar, &*knn_simd},
                        std::pair{&*range_scalar, &*range_simd}}) {
      EXPECT_EQ(a->telemetry.chunks_read, b->telemetry.chunks_read);
      EXPECT_EQ(a->telemetry.descriptors_scanned,
                b->telemetry.descriptors_scanned);
      EXPECT_EQ(a->telemetry.model_micros, b->telemetry.model_micros);
      EXPECT_EQ(a->telemetry.exact, b->telemetry.exact);
      ASSERT_EQ(a->neighbors.size(), b->neighbors.size());
      for (size_t i = 0; i < a->neighbors.size(); ++i) {
        EXPECT_EQ(a->neighbors[i].id, b->neighbors[i].id) << "rank " << i;
        // Bitwise equality, not almost-equal: the kernels promise it.
        EXPECT_EQ(a->neighbors[i].distance, b->neighbors[i].distance)
            << "rank " << i;
      }
    }
  }
}

TEST(SearcherTest, RangeSearchRejectsBadArguments) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  Searcher searcher(&*fx.index, DiskCostModel());
  EXPECT_TRUE(searcher
                  .SearchRange(fx.collection.Vector(0), -0.5,
                               StopRule::Exact())
                  .status()
                  .IsInvalidArgument());
  std::vector<float> wrong(3, 0.0f);
  EXPECT_TRUE(searcher.SearchRange(wrong, 1.0, StopRule::Exact())
                  .status()
                  .IsInvalidArgument());
}

TEST(SearcherTest, ExactAcrossChunkersAgrees) {
  // Whatever the chunking, exact search must return identical distances.
  SrTreeChunker sr(70);
  RoundRobinChunker rr(70);
  IndexFixture sr_fx(&sr, 33);
  IndexFixture rr_fx(&rr, 33);
  Searcher sr_search(&*sr_fx.index, DiskCostModel());
  Searcher rr_search(&*rr_fx.index, DiskCostModel());

  Rng rng(2);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<float> query(kDescriptorDim);
    for (auto& x : query) x = static_cast<float>(rng.UniformDouble(30, 70));
    auto a = sr_search.Search(query, 8, StopRule::Exact());
    auto b = rr_search.Search(query, 8, StopRule::Exact());
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    for (size_t i = 0; i < 8; ++i) {
      EXPECT_NEAR(a->neighbors[i].distance, b->neighbors[i].distance, 1e-6);
    }
  }
}

TEST(SearcherTest, EpsilonApproximationBoundsError) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  Searcher searcher(&*fx.index, DiskCostModel());

  Rng rng(77);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<float> query(kDescriptorDim);
    for (auto& x : query) x = static_cast<float>(rng.UniformDouble(30, 70));
    auto exact = searcher.Search(query, 10, StopRule::Exact());
    ASSERT_TRUE(exact.ok());
    for (double epsilon : {0.2, 1.0}) {
      auto approx =
          searcher.Search(query, 10, StopRule::EpsilonApproximate(epsilon));
      ASSERT_TRUE(approx.ok());
      // The exactness flag may only be claimed when every chunk was
      // scanned (then the answer is exact regardless of epsilon).
      if (approx->telemetry.exact) {
        EXPECT_EQ(approx->telemetry.chunks_read, fx.index->num_chunks());
      }
      // (1+eps)-guarantee: every reported distance is within (1+eps) of the
      // true distance at that rank.
      for (size_t i = 0; i < 10; ++i) {
        EXPECT_LE(approx->neighbors[i].distance,
                  (1.0 + epsilon) * exact->neighbors[i].distance + 1e-9);
      }
      // Never more work than the exact search.
      EXPECT_LE(approx->telemetry.chunks_read, exact->telemetry.chunks_read);
    }
  }
}

TEST(SearcherTest, ZeroEpsilonEqualsExact) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  Searcher searcher(&*fx.index, DiskCostModel());
  const auto query = fx.collection.Vector(42);
  auto a = searcher.Search(query, 10, StopRule::Exact());
  auto b = searcher.Search(query, 10, StopRule::EpsilonApproximate(0.0));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b->telemetry.exact);
  EXPECT_EQ(a->telemetry.chunks_read, b->telemetry.chunks_read);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(a->neighbors[i].id, b->neighbors[i].id);
  }
}

// ---------------------------------------------------------------------------
// Prefetch pipeline bit-identity
// ---------------------------------------------------------------------------

PrefetcherOptions Depth(size_t depth) {
  PrefetcherOptions options;
  options.depth = depth;
  return options;
}

// Everything the cost model and quality evaluation consume must be equal —
// and distances bitwise so, since prefetching never touches the math.
void ExpectBitIdentical(const MethodResult& a, const MethodResult& b) {
  EXPECT_EQ(a.telemetry.chunks_read, b.telemetry.chunks_read);
  EXPECT_EQ(a.telemetry.descriptors_scanned, b.telemetry.descriptors_scanned);
  EXPECT_EQ(a.telemetry.model_micros, b.telemetry.model_micros);
  EXPECT_EQ(a.telemetry.exact, b.telemetry.exact);
  ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
  for (size_t i = 0; i < a.neighbors.size(); ++i) {
    EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id) << "rank " << i;
    EXPECT_EQ(a.neighbors[i].distance, b.neighbors[i].distance)
        << "rank " << i;
  }
}

// An index whose chunks come in pairs with bit-identical centroids and
// radii: the collection holds every row twice, and each SR-tree chunk of the
// first copy is mirrored by a chunk of the same rows, in the same order, of
// the second. Every centroid distance therefore ties exactly with another,
// and a query equal to a centroid ties at distance 0.
struct TiedCentroidFixture {
  MemEnv env;
  Collection collection;
  std::optional<ChunkIndex> index;

  TiedCentroidFixture() {
    const Collection base = TestCollection();
    SrTreeChunker chunker(60);
    auto base_chunks = chunker.FormChunks(base);
    QVT_CHECK(base_chunks.ok());
    const size_t n = base.size();
    for (size_t copy = 0; copy < 2; ++copy) {
      for (size_t i = 0; i < n; ++i) {
        collection.Append(static_cast<DescriptorId>(copy * n + i),
                          base.Vector(i));
      }
    }
    ChunkingResult chunking;
    chunking.chunks = base_chunks->chunks;
    for (const auto& chunk : base_chunks->chunks) {
      std::vector<size_t> mirror;
      for (const size_t pos : chunk) mirror.push_back(pos + n);
      chunking.chunks.push_back(std::move(mirror));
    }
    for (const size_t pos : base_chunks->outliers) {
      chunking.outliers.push_back(pos);
      chunking.outliers.push_back(pos + n);
    }
    auto built = ChunkIndex::Build(collection, chunking, &env,
                                   ChunkIndexPaths::ForBase("tied"));
    QVT_CHECK(built.ok());
    index.emplace(std::move(built).value());
  }

  /// Random queries, plus one equal to a centroid (distance 0, tied).
  std::vector<std::vector<float>> Queries() const {
    std::vector<std::vector<float>> queries;
    const auto centroid = index->centroid(index->num_chunks() / 3);
    queries.emplace_back(centroid.begin(), centroid.end());
    Rng rng(29);
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<float> query(kDescriptorDim);
      for (auto& x : query) x = static_cast<float>(rng.UniformDouble(20, 80));
      queries.push_back(std::move(query));
    }
    return queries;
  }
};

// Satellite regression: the vectorized RankChunks (one batched kernel call
// over the contiguous centroid matrix) must reproduce the old per-centroid
// vec::Distance loop and comparator sort bit-for-bit, ties broken by chunk
// id.
TEST(SearcherTest, RankChunksMatchesScalarCentroidReference) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  TiedCentroidFixture tied;

  const auto check = [](const ChunkIndex& index,
                        std::span<const float> query) {
    Searcher searcher(&index, DiskCostModel());
    const size_t num_chunks = index.num_chunks();
    SearchScratch scratch;
    searcher.RankChunks(query, scratch);

    std::vector<double> reference(num_chunks);
    std::vector<uint32_t> order(num_chunks);
    for (size_t i = 0; i < num_chunks; ++i) {
      order[i] = static_cast<uint32_t>(i);
      reference[i] = vec::Distance(query, index.centroid(i));
    }
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      if (reference[a] != reference[b]) return reference[a] < reference[b];
      return a < b;
    });

    ASSERT_EQ(scratch.rank_order.size(), num_chunks);
    ASSERT_EQ(scratch.suffix_min_bound.size(), num_chunks + 1);
    for (size_t i = 0; i < num_chunks; ++i) {
      EXPECT_EQ(scratch.centroid_distance[i], reference[i]) << "chunk " << i;
      EXPECT_EQ(scratch.rank_order[i], order[i]) << "rank " << i;
    }
  };

  Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<float> query(kDescriptorDim);
    for (auto& x : query) x = static_cast<float>(rng.UniformDouble(20, 80));
    check(*fx.index, query);
  }

  // Exact ties, the distance-0 one included: the ranking must break them
  // by ascending chunk id, exactly as the reference comparator does.
  const std::vector<std::vector<float>> queries = tied.Queries();
  SearchScratch probe;
  Searcher(&*tied.index, DiskCostModel()).RankChunks(queries[0], probe);
  ASSERT_EQ(probe.centroid_distance[probe.rank_order[0]], 0.0);
  ASSERT_EQ(probe.centroid_distance[probe.rank_order[1]], 0.0);
  for (const auto& query : queries) check(*tied.index, query);
}

// A budgeted ranking (the kMaxChunks plan) is exactly the first min(b, n)
// entries of the full ranking, ties and distance-0 queries included; the
// distances and the modeled index-scan charge do not depend on the budget.
TEST(SearcherTest, BudgetedRankingEqualsFullRankingPrefix) {
  TiedCentroidFixture tied;
  const ChunkIndex& index = *tied.index;
  Searcher searcher(&index, DiskCostModel());
  const size_t n = index.num_chunks();
  ASSERT_GT(n, 9u);

  for (const auto& query : tied.Queries()) {
    SearchScratch full;
    const int64_t full_micros = searcher.RankChunks(query, full);
    ASSERT_EQ(full.rank_order.size(), n);
    for (const size_t budget :
         {size_t{0}, size_t{1}, size_t{8}, n - 1, n, n + 5}) {
      SCOPED_TRACE("budget " + std::to_string(budget));
      SearchScratch partial;
      const int64_t micros = searcher.RankChunks(query, partial, budget);
      EXPECT_EQ(micros, full_micros);
      const size_t b = std::min(budget, n);
      ASSERT_EQ(partial.rank_order.size(), b);
      for (size_t r = 0; r < b; ++r) {
        EXPECT_EQ(partial.rank_order[r], full.rank_order[r]) << "rank " << r;
      }
      EXPECT_EQ(partial.centroid_distance, full.centroid_distance);
      // A cut order has no suffix bounds; an uncut one is the full ranking.
      if (budget < n) {
        EXPECT_TRUE(partial.suffix_min_bound.empty());
      } else {
        EXPECT_EQ(partial.suffix_min_bound, full.suffix_min_bound);
      }
    }
  }
}

// The tentpole's core promise: at every depth, under every stop rule, the
// pipelined search returns the same bits as the synchronous one — prefetch
// moves *when* bytes arrive, never what is scanned or what is charged.
TEST(PrefetchSearcherTest, PipelinedSearchIsBitIdenticalToSynchronous) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  Searcher sync(&*fx.index, DiskCostModel(), nullptr, Depth(0));
  ASSERT_EQ(sync.prefetcher(), nullptr);

  const StopRule rules[] = {
      StopRule::Exact(), StopRule::EpsilonApproximate(0.5),
      StopRule::MaxChunks(3), StopRule::TimeBudget(60LL * 1000),
      StopRule::TimeBudget(500LL * 1000)};

  for (size_t depth : {1u, 2u, 4u, 8u}) {
    Searcher pipelined(&*fx.index, DiskCostModel(), nullptr, Depth(depth));
    ASSERT_NE(pipelined.prefetcher(), nullptr);
    Rng rng(depth);
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<float> query(kDescriptorDim);
      for (auto& x : query) x = static_cast<float>(rng.UniformDouble(20, 80));
      for (const StopRule& rule : rules) {
        auto a = sync.Search(query, 10, rule);
        auto b = pipelined.Search(query, 10, rule);
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
        ExpectBitIdentical(*a, *b);
        // The pipeline's own ledger must balance, and the synchronous
        // searcher must not have touched it at all.
        const PrefetchStats& p = b->telemetry.prefetch;
        EXPECT_EQ(p.issued, p.used + p.wasted + p.cancelled);
        // No cache: every chunk is read.
        EXPECT_EQ(p.used, b->telemetry.chunks_read);
        EXPECT_EQ(a->telemetry.prefetch.issued, 0u);
        // One model clock: the depth-0 timeline is the serial charge, and
        // a pipeline can only improve on it.
        EXPECT_EQ(a->telemetry.model_overlapped_micros,
                  a->telemetry.model_micros);
        EXPECT_LE(b->telemetry.model_overlapped_micros,
                  b->telemetry.model_micros);
        EXPECT_LE(b->telemetry.model_overlapped_micros,
                  a->telemetry.model_overlapped_micros);
      }
    }
  }
}

TEST(PrefetchSearcherTest, PipelinedCachedSearchMatchesSynchronousCached) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  // Two identical caches, sized for eviction churn, fed the exact same
  // query sequence: results, hit/miss streams, and final contents must not
  // be distinguishable between the two paths.
  ChunkCache sync_cache(64);
  ChunkCache pipe_cache(64);
  Searcher sync(&*fx.index, DiskCostModel(), &sync_cache, Depth(0));
  Searcher pipelined(&*fx.index, DiskCostModel(), &pipe_cache, Depth(4));

  const StopRule rules[] = {StopRule::Exact(), StopRule::MaxChunks(5),
                            StopRule::TimeBudget(200LL * 1000)};
  for (size_t pos : {0u, 11u, 222u, 333u, 11u, 0u}) {  // repeats: warm hits
    for (const StopRule& rule : rules) {
      auto a = sync.Search(fx.collection.Vector(pos), 10, rule);
      auto b = pipelined.Search(fx.collection.Vector(pos), 10, rule);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      ExpectBitIdentical(*a, *b);
    }
  }
  // Same hit/miss/eviction history: the stream's peek-then-authoritative-Get
  // discipline leaves the cache exactly as the synchronous path does.
  const ChunkCacheStats sa = sync_cache.Stats();
  const ChunkCacheStats sb = pipe_cache.Stats();
  EXPECT_EQ(sa.hits, sb.hits);
  EXPECT_EQ(sa.misses, sb.misses);
  EXPECT_EQ(sa.evictions, sb.evictions);
  EXPECT_EQ(sync_cache.used_pages(), pipe_cache.used_pages());
  EXPECT_EQ(sync_cache.size(), pipe_cache.size());
}

// A stop rule firing mid-order must cancel the stranded read-ahead without
// perturbing the answer — the crash-safety half is covered in
// storage_prefetcher_test (a cancelled read never publishes).
TEST(PrefetchSearcherTest, MidScanExactStopCancelsStrandedReads) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  Searcher sync(&*fx.index, DiskCostModel(), nullptr, Depth(0));
  Searcher pipelined(&*fx.index, DiskCostModel(), nullptr, Depth(8));

  // A dataset query prunes after a few chunks (the exact stop fires with
  // most of the order unread), so the 8-deep window is left stranded.
  const auto query = fx.collection.Vector(100);
  auto a = sync.Search(query, 5, StopRule::Exact());
  auto b = pipelined.Search(query, 5, StopRule::Exact());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectBitIdentical(*a, *b);
  ASSERT_LT(b->telemetry.chunks_read, fx.index->num_chunks());

  const PrefetchStats& p = b->telemetry.prefetch;
  EXPECT_EQ(p.used, b->telemetry.chunks_read);
  EXPECT_GT(p.issued, p.used);  // the window had run ahead of the stop
  EXPECT_EQ(p.issued, p.used + p.wasted + p.cancelled);
  EXPECT_GT(p.wasted + p.cancelled, 0u);
}

// Under kMaxChunks the read-ahead stream covers only the budget prefix, so
// every issued read is consumed: nothing is wasted or cancelled.
TEST(PrefetchSearcherTest, ReadAheadStopsAtChunkBudget) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  const size_t n = fx.index->num_chunks();
  Searcher sync(&*fx.index, DiskCostModel(), nullptr, Depth(0));
  Searcher pipelined(&*fx.index, DiskCostModel(), nullptr, Depth(4));

  for (const size_t budget : {1u, 3u, 8u}) {
    for (const size_t pos : {0u, 100u, 777u}) {
      SCOPED_TRACE("budget " + std::to_string(budget) + " pos " +
                   std::to_string(pos));
      const auto query = fx.collection.Vector(pos);
      auto a = sync.Search(query, 10, StopRule::MaxChunks(budget));
      auto b = pipelined.Search(query, 10, StopRule::MaxChunks(budget));
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      ExpectBitIdentical(*a, *b);
      const PrefetchStats& p = b->telemetry.prefetch;
      EXPECT_EQ(p.issued, std::min(budget, n));
      EXPECT_EQ(p.used, std::min(budget, n));
      EXPECT_EQ(p.wasted, 0u);
      EXPECT_EQ(p.cancelled, 0u);
    }
  }
}

TEST(PrefetchSearcherTest, PipelinedRangeSearchIsBitIdenticalToSynchronous) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  ChunkCache sync_cache(100000);
  ChunkCache pipe_cache(100000);
  Searcher sync_plain(&*fx.index, DiskCostModel(), nullptr, Depth(0));
  Searcher pipe_plain(&*fx.index, DiskCostModel(), nullptr, Depth(4));
  Searcher sync_cached(&*fx.index, DiskCostModel(), &sync_cache, Depth(0));
  Searcher pipe_cached(&*fx.index, DiskCostModel(), &pipe_cache, Depth(4));

  const StopRule rules[] = {StopRule::Exact(), StopRule::MaxChunks(2)};
  Rng rng(7);
  for (int trial = 0; trial < 6; ++trial) {
    const size_t pos = rng.Uniform(fx.collection.size());
    const double radius = rng.UniformDouble(2.0, 12.0);
    for (const StopRule& rule : rules) {
      auto a = sync_plain.SearchRange(fx.collection.Vector(pos), radius, rule);
      auto b = pipe_plain.SearchRange(fx.collection.Vector(pos), radius, rule);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      ExpectBitIdentical(*a, *b);

      auto c =
          sync_cached.SearchRange(fx.collection.Vector(pos), radius, rule);
      auto d =
          pipe_cached.SearchRange(fx.collection.Vector(pos), radius, rule);
      ASSERT_TRUE(c.ok());
      ASSERT_TRUE(d.ok());
      ExpectBitIdentical(*c, *d);
    }
  }
  EXPECT_EQ(sync_cache.Stats().hits, pipe_cache.Stats().hits);
  EXPECT_EQ(sync_cache.Stats().misses, pipe_cache.Stats().misses);
}

TEST(SearcherTest, ApproximateIsSubsetQualityOfExact) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  Searcher searcher(&*fx.index, DiskCostModel());
  const auto query = fx.collection.Vector(123);

  auto exact = searcher.Search(query, 10, StopRule::Exact());
  ASSERT_TRUE(exact.ok());
  auto approx = searcher.Search(query, 10, StopRule::MaxChunks(2));
  ASSERT_TRUE(approx.ok());
  // The approximate k-th distance can never beat the exact one.
  ASSERT_FALSE(approx->neighbors.empty());
  EXPECT_GE(approx->neighbors.back().distance,
            exact->neighbors.back().distance - 1e-9);
}

}  // namespace
}  // namespace qvt
