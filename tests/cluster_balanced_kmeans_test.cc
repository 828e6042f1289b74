#include "cluster/balanced_kmeans.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "chunked_method_util.h"
#include "cluster/chunker.h"
#include "cluster/kmeans.h"
#include "cluster/rebalance.h"
#include "core/chunk_index.h"
#include "core/evaluation.h"
#include "core/exact_scan.h"
#include "core/search_method.h"
#include "core/searcher.h"
#include "descriptor/generator.h"
#include "descriptor/workload.h"
#include "util/parallel_for.h"

namespace qvt {
namespace {

/// A deliberately skewed collection: ~half of all descriptors in one dense
/// mode. Plain k-means hands the heavy mode oversized chunks; the balanced
/// builds must not.
Collection SkewedCollection(size_t num_images = 60) {
  GeneratorConfig config;
  config.num_images = num_images;
  config.descriptors_per_image = 40;
  config.num_modes = 12;
  config.heavy_mode_weight = 0.5;
  config.outlier_fraction = 0.0;
  config.seed = 321;
  return GenerateCollection(config);
}

BalancedKMeansConfig SkewConfig(size_t clusters = 8) {
  BalancedKMeansConfig config;
  config.base.num_clusters = clusters;
  config.base.max_iterations = 8;
  return config;
}

TEST(BalancedKMeansTest, PartitionIsValidAndBounded) {
  const Collection c = SkewedCollection();
  BalancedKMeansChunker chunker(SkewConfig());
  auto result = chunker.FormChunks(c);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(ValidateChunking(*result, c.size()).ok());
  EXPECT_TRUE(result->outliers.empty());
  EXPECT_EQ(chunker.name(), "BKM");

  // The slack-derived bound holds for every chunk, so the imbalance factor
  // cannot exceed bound / mean (= slack when no chunk went empty).
  const size_t bound = chunker.last_bound();
  ASSERT_GT(bound, 0u);
  const PopulationStats pops = result->Populations();
  EXPECT_LE(pops.max, bound);
  EXPECT_LE(pops.imbalance, static_cast<double>(bound) / pops.mean + 1e-9);
}

TEST(BalancedKMeansTest, BeatsPlainKMeansImbalanceOnSkewedData) {
  const Collection c = SkewedCollection();
  KMeansConfig km_config;
  km_config.num_clusters = 8;
  km_config.max_iterations = 8;
  KMeansChunker km(km_config);
  auto km_result = km.FormChunks(c);
  ASSERT_TRUE(km_result.ok());

  BalancedKMeansChunker bkm(SkewConfig());
  auto bkm_result = bkm.FormChunks(c);
  ASSERT_TRUE(bkm_result.ok());

  // The whole point: on skewed data, plain k-means produces giant chunks
  // and the balanced variant does not.
  EXPECT_LT(bkm_result->Populations().imbalance,
            km_result->Populations().imbalance);
  EXPECT_LT(bkm_result->Populations().max, km_result->Populations().max);
}

TEST(BalancedKMeansTest, ExplicitMaxPopulationIsHonored) {
  const Collection c = SkewedCollection();
  BalancedKMeansConfig config = SkewConfig(10);
  config.max_population = 300;
  BalancedKMeansChunker chunker(config);
  auto result = chunker.FormChunks(c);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(chunker.last_bound(), 300u);
  EXPECT_LE(result->Populations().max, 300u);
}

TEST(BalancedKMeansTest, BoundTooTightIsInvalidArgument) {
  const Collection c = SkewedCollection();  // 2400 descriptors
  BalancedKMeansConfig config = SkewConfig(4);
  config.max_population = 100;  // 4 * 100 < 2400
  BalancedKMeansChunker chunker(config);
  EXPECT_TRUE(chunker.FormChunks(c).status().IsInvalidArgument());
}

TEST(BalancedKMeansTest, RejectsEmptyCollection) {
  Collection empty;
  BalancedKMeansChunker chunker(SkewConfig());
  EXPECT_TRUE(chunker.FormChunks(empty).status().IsInvalidArgument());
}

TEST(BalancedKMeansTest, DeterministicForSeed) {
  const Collection c = SkewedCollection();
  BalancedKMeansChunker a(SkewConfig()), b(SkewConfig());
  auto ra = a.FormChunks(c);
  auto rb = b.FormChunks(c);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->chunks, rb->chunks);
}

TEST(BalancedKMeansTest, BitIdenticalAcrossBuildThreadCounts) {
  const Collection c = SkewedCollection();
  ChunkingResult reference;
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    SetBuildThreads(threads);
    BalancedKMeansChunker chunker(SkewConfig());
    auto result = chunker.FormChunks(c);
    ASSERT_TRUE(result.ok());
    if (threads == 1) {
      reference = std::move(result).value();
    } else {
      EXPECT_EQ(result->chunks, reference.chunks)
          << "chunking differs at " << threads << " build threads";
      EXPECT_EQ(result->outliers, reference.outliers);
    }
  }
  SetBuildThreads(0);
}

TEST(BalancedKMeansTest, ExactSearchOverBalancedIndexMatchesExactScan) {
  const Collection c = SkewedCollection(30);
  BalancedKMeansChunker chunker(SkewConfig(6));
  auto chunking = chunker.FormChunks(c);
  ASSERT_TRUE(chunking.ok());

  const ChunkIndexPaths paths =
      ChunkIndexPaths::ForBase(::testing::TempDir() + "/bkm_recall");
  auto index = ChunkIndex::Build(c, *chunking, Env::Posix(), paths);
  ASSERT_TRUE(index.ok());
  const auto bound = static_cast<uint32_t>(chunker.last_bound());
  ASSERT_TRUE(index->Validate(bound).ok());

  const size_t k = 5;
  Rng rng(9);
  const Workload workload = MakeDatasetQueries(c, 40, &rng);
  const GroundTruth truth = GroundTruth::Compute(c, workload, k);

  const auto method = MakeChunkedMethod(&*index);
  for (size_t q = 0; q < workload.num_queries(); ++q) {
    auto result = method->Search(workload.Query(q), k, StopRule::Exact());
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(PrecisionAtK(result->neighbors, truth.TruthFor(q), k), 1.0)
        << "query " << q << " lost a true neighbor to balanced chunking";
  }
}

TEST(RebalanceTest, SplitOversizedEnforcesBound) {
  const Collection c = SkewedCollection();
  // One giant chunk holding everything.
  ChunkingResult chunking;
  chunking.chunks.emplace_back();
  for (size_t i = 0; i < c.size(); ++i) chunking.chunks[0].push_back(i);

  auto split = SplitOversized(std::move(chunking), c, 200);
  ASSERT_TRUE(split.ok());
  ASSERT_TRUE(ValidateChunking(*split, c.size()).ok());
  EXPECT_LE(split->Populations().max, 200u);
  EXPECT_EQ(split->TotalChunkedDescriptors(), c.size());
}

TEST(RebalanceTest, SplitRequiresPositiveBound) {
  const Collection c = SkewedCollection(4);
  ChunkingResult chunking;
  chunking.chunks.push_back({0, 1, 2});
  EXPECT_TRUE(
      SplitOversized(std::move(chunking), c, 0).status().IsInvalidArgument());
}

TEST(RebalanceTest, PackUndersizedMergesSmallChunks) {
  const Collection c = SkewedCollection();
  // Degenerate chunking: every descriptor its own chunk.
  ChunkingResult chunking;
  for (size_t i = 0; i < 50; ++i) chunking.chunks.push_back({i});
  for (size_t i = 50; i < c.size(); ++i) chunking.outliers.push_back(i);

  auto packed = PackUndersized(std::move(chunking), c, /*min_population=*/10,
                               /*max_population=*/25);
  ASSERT_TRUE(packed.ok());
  ASSERT_TRUE(ValidateChunking(*packed, c.size()).ok());
  EXPECT_LT(packed->chunks.size(), 50u);
  EXPECT_LE(packed->Populations().max, 25u);
  // Outliers pass through untouched.
  EXPECT_EQ(packed->outliers.size(), c.size() - 50);
}

TEST(RebalanceTest, PackRejectsMinAboveMax) {
  const Collection c = SkewedCollection(4);
  ChunkingResult chunking;
  chunking.chunks.push_back({0, 1});
  EXPECT_TRUE(PackUndersized(std::move(chunking), c, /*min_population=*/10,
                             /*max_population=*/5)
                  .status()
                  .IsInvalidArgument());
}

TEST(RebalanceTest, RebalanceAnyChunkerOutput) {
  // The passes are chunker-agnostic: bolt a bound onto plain k-means.
  const Collection c = SkewedCollection();
  KMeansConfig km_config;
  km_config.num_clusters = 8;
  km_config.max_iterations = 8;
  KMeansChunker km(km_config);
  auto chunking = km.FormChunks(c);
  ASSERT_TRUE(chunking.ok());
  const size_t before_max = chunking->Populations().max;

  RebalanceOptions options;
  options.max_population = 300;
  options.min_population = 60;
  auto rebalanced = RebalanceChunking(std::move(chunking).value(), c, options);
  ASSERT_TRUE(rebalanced.ok());
  ASSERT_TRUE(ValidateChunking(*rebalanced, c.size()).ok());
  EXPECT_LE(rebalanced->Populations().max, 300u);
  EXPECT_LT(rebalanced->Populations().max, before_max);
  EXPECT_EQ(rebalanced->TotalChunkedDescriptors(), c.size());
}

TEST(RebalanceTest, DeterministicAcrossBuildThreadCounts) {
  const Collection c = SkewedCollection();
  ChunkingResult reference;
  for (const size_t threads : {1u, 4u}) {
    SetBuildThreads(threads);
    KMeansConfig km_config;
    km_config.num_clusters = 8;
    km_config.max_iterations = 8;
    KMeansChunker km(km_config);
    auto chunking = km.FormChunks(c);
    ASSERT_TRUE(chunking.ok());
    RebalanceOptions options;
    options.max_population = 300;
    options.min_population = 60;
    auto rebalanced =
        RebalanceChunking(std::move(chunking).value(), c, options);
    ASSERT_TRUE(rebalanced.ok());
    if (threads == 1) {
      reference = std::move(rebalanced).value();
    } else {
      EXPECT_EQ(rebalanced->chunks, reference.chunks);
    }
  }
  SetBuildThreads(0);
}

}  // namespace
}  // namespace qvt
