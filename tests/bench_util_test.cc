#include "bench_util/index_suite.h"

#include <unistd.h>

#include <filesystem>

#include <gtest/gtest.h>

#include "bench_util/runner.h"
#include "chunked_method_util.h"
#include "core/search_method.h"
#include "storage/disk_cost_model.h"
#include "util/logging.h"

namespace qvt {
namespace {

/// Shares one tiny suite across tests (building it is the expensive part).
class IndexSuiteTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new ExperimentConfig(ExperimentConfig::Tiny());
    // Per-process dir: with gtest_discover_tests every test runs in its own
    // process, so a shared dir would let one process's setup/teardown
    // remove_all the cache out from under another mid-build.
    config_->cache_dir = "/tmp/qvt_cache_test_" + std::to_string(::getpid());
    std::filesystem::remove_all(config_->cache_dir);
    auto suite = IndexSuite::BuildOrLoad(*config_, Env::Posix());
    QVT_CHECK_OK(suite.status()) << "suite build failed";
    suite_ = suite->release();
  }

  static void TearDownTestSuite() {
    delete suite_;
    std::filesystem::remove_all(config_->cache_dir);
    delete config_;
  }

  static ExperimentConfig* config_;
  static IndexSuite* suite_;
};

ExperimentConfig* IndexSuiteTest::config_ = nullptr;
IndexSuite* IndexSuiteTest::suite_ = nullptr;

TEST_F(IndexSuiteTest, AllSixVariantsExist) {
  for (Strategy strategy : kAllStrategies) {
    for (SizeClass size_class : kAllSizeClasses) {
      const IndexVariant& v = suite_->variant(strategy, size_class);
      EXPECT_GT(v.index.num_chunks(), 0u) << v.Label();
      EXPECT_GT(v.retained, 0u) << v.Label();
      EXPECT_EQ(v.index.total_descriptors(), v.retained) << v.Label();
    }
  }
}

TEST_F(IndexSuiteTest, BagAndSrShareRetainedSets) {
  for (SizeClass size_class : kAllSizeClasses) {
    const IndexVariant& bag = suite_->variant(Strategy::kBag, size_class);
    const IndexVariant& sr = suite_->variant(Strategy::kSrTree, size_class);
    EXPECT_EQ(bag.retained, sr.retained);
    EXPECT_EQ(bag.discarded, sr.discarded);
    EXPECT_EQ(bag.retained + bag.discarded, suite_->collection().size());
    EXPECT_EQ(suite_->retained(size_class).size(), bag.retained);
  }
}

TEST_F(IndexSuiteTest, ChunkSizesOrderedAcrossClasses) {
  const auto avg = [&](SizeClass size_class) {
    const IndexVariant& v = suite_->variant(Strategy::kBag, size_class);
    return static_cast<double>(v.index.total_descriptors()) /
           static_cast<double>(v.index.num_chunks());
  };
  EXPECT_LE(avg(SizeClass::kSmall), avg(SizeClass::kMedium));
  EXPECT_LE(avg(SizeClass::kMedium), avg(SizeClass::kLarge));
}

TEST_F(IndexSuiteTest, SrChunksAreUniform) {
  for (SizeClass size_class : kAllSizeClasses) {
    const IndexVariant& sr = suite_->variant(Strategy::kSrTree, size_class);
    uint32_t min = UINT32_MAX, max = 0;
    for (const ChunkLocation& loc : sr.index.locations()) {
      min = std::min(min, loc.num_descriptors);
      max = std::max(max, loc.num_descriptors);
    }
    EXPECT_LE(max, 2u * std::max(1u, min)) << sr.Label();
  }
}

TEST_F(IndexSuiteTest, WorkloadsMatchConfig) {
  EXPECT_EQ(suite_->dq().num_queries(), config_->queries_per_workload);
  EXPECT_EQ(suite_->sq().num_queries(), config_->queries_per_workload);
  EXPECT_EQ(suite_->dq().name, "DQ");
  EXPECT_EQ(suite_->sq().name, "SQ");
}

TEST_F(IndexSuiteTest, TruthsAvailableForAllClassesAndWorkloads) {
  for (SizeClass size_class : kAllSizeClasses) {
    for (const char* workload : {"DQ", "SQ"}) {
      const GroundTruth& truth = suite_->truth(size_class, workload);
      EXPECT_EQ(truth.k(), config_->k);
      EXPECT_EQ(truth.num_queries(), config_->queries_per_workload);
    }
  }
}

TEST_F(IndexSuiteTest, CacheReloadsIdentically) {
  auto reloaded = IndexSuite::BuildOrLoad(*config_, Env::Posix());
  ASSERT_TRUE(reloaded.ok());
  for (Strategy strategy : kAllStrategies) {
    for (SizeClass size_class : kAllSizeClasses) {
      const IndexVariant& a = suite_->variant(strategy, size_class);
      const IndexVariant& b = (*reloaded)->variant(strategy, size_class);
      EXPECT_EQ(a.index.num_chunks(), b.index.num_chunks());
      EXPECT_EQ(a.retained, b.retained);
      EXPECT_EQ(a.discarded, b.discarded);
    }
  }
}

TEST_F(IndexSuiteTest, SrSweepIndexBuilds) {
  auto index = suite_->SrIndexWithLeafSize(64);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->total_descriptors(),
            suite_->retained(SizeClass::kSmall).size());
  // Cached re-open gives the same index.
  auto again = suite_->SrIndexWithLeafSize(64);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->num_chunks(), index->num_chunks());
}

TEST_F(IndexSuiteTest, RunWorkloadProducesSaneCurves) {
  const IndexVariant& v = suite_->variant(Strategy::kSrTree, SizeClass::kSmall);
  Searcher searcher(&v.index, DiskCostModel(config_->cost_model));
  auto curves = RunWorkload(searcher, suite_->dq(),
                            suite_->truth(SizeClass::kSmall, "DQ"),
                            config_->k);
  ASSERT_TRUE(curves.ok());

  // Exact completion: every query finds all k true neighbors; final
  // precision is 1.
  EXPECT_DOUBLE_EQ(curves->mean_final_precision, 1.0);
  EXPECT_EQ(curves->queries_reaching.back(), config_->queries_per_workload);

  // Effort curves are monotone nondecreasing in n.
  for (size_t n = 1; n < config_->k; ++n) {
    EXPECT_GE(curves->mean_chunks_at[n], curves->mean_chunks_at[n - 1]);
    EXPECT_GE(curves->mean_model_seconds_at[n],
              curves->mean_model_seconds_at[n - 1]);
  }
  EXPECT_GT(curves->mean_completion_model_seconds,
            curves->mean_model_seconds_at.back() - 1e-9);
  EXPECT_GE(curves->mean_chunks_to_completion, curves->mean_chunks_at.back());
}

TEST_F(IndexSuiteTest, ApproximateStopLowersPrecision) {
  const IndexVariant& v = suite_->variant(Strategy::kSrTree, SizeClass::kSmall);
  Searcher searcher(&v.index, DiskCostModel(config_->cost_model));
  auto exact = RunWorkload(searcher, suite_->sq(),
                           suite_->truth(SizeClass::kSmall, "SQ"),
                           config_->k, StopRule::Exact());
  auto approx = RunWorkload(searcher, suite_->sq(),
                            suite_->truth(SizeClass::kSmall, "SQ"),
                            config_->k, StopRule::MaxChunks(1));
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(approx.ok());
  EXPECT_DOUBLE_EQ(exact->mean_final_precision, 1.0);
  EXPECT_LT(approx->mean_final_precision, 1.0);
  EXPECT_GT(approx->mean_final_precision, 0.0);
  EXPECT_LT(approx->mean_completion_model_seconds,
            exact->mean_completion_model_seconds);
}

TEST_F(IndexSuiteTest, RunTailSweepProducesOrderedPoints) {
  const IndexVariant& v = suite_->variant(Strategy::kSrTree, SizeClass::kSmall);
  const auto method = MakeChunkedMethod(&v.index, nullptr, {},
                                        DiskCostModel(config_->cost_model));

  const std::vector<size_t> budgets{1, 2, 0};
  auto points = RunTailSweep(*method, suite_->dq(),
                             &suite_->truth(SizeClass::kSmall, "DQ"),
                             config_->k, budgets, /*num_threads=*/1);
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points->size(), budgets.size());

  // Points come back in budget order; recall rises with the budget and the
  // exact anchor (budget 0) delivers recall 1.
  for (size_t i = 0; i < budgets.size(); ++i) {
    EXPECT_EQ((*points)[i].max_chunks, budgets[i]);
    EXPECT_EQ((*points)[i].report.num_queries, suite_->dq().num_queries());
    EXPECT_GT((*points)[i].report.max_probe_rows, 0u);
  }
  EXPECT_LE((*points)[0].report.mean_final_precision,
            (*points)[1].report.mean_final_precision + 1e-9);
  EXPECT_DOUBLE_EQ(points->back().report.mean_final_precision, 1.0);
  // Latency percentiles are ordered within every report.
  for (const TailPoint& point : *points) {
    EXPECT_LE(point.report.model.p50, point.report.model.p95);
    EXPECT_LE(point.report.model.p95, point.report.model.p99);
    EXPECT_GE(point.report.model.TailRatio(), 1.0);
  }
}

TEST_F(IndexSuiteTest, RunTailSweepRejectsEmptyBudgets) {
  const IndexVariant& v = suite_->variant(Strategy::kSrTree, SizeClass::kSmall);
  const auto method = MakeChunkedMethod(&v.index, nullptr, {},
                                        DiskCostModel(config_->cost_model));
  EXPECT_TRUE(RunTailSweep(*method, suite_->dq(),
                           &suite_->truth(SizeClass::kSmall, "DQ"),
                           config_->k, {}, 1)
                  .status()
                  .IsInvalidArgument());
}

TEST(ExperimentConfigTest, FingerprintChangesWithConfig) {
  ExperimentConfig a = ExperimentConfig::Tiny();
  ExperimentConfig b = ExperimentConfig::Tiny();
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  b.generator.seed += 1;
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  b = a;
  b.k = 10;
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

TEST(ExperimentConfigTest, BagTargetFormula) {
  ExperimentConfig config = ExperimentConfig::Tiny();
  const size_t n = 10000;
  const size_t target = config.BagTargetForChunkSize(n, 100);
  // ~0.88*10000/100 + 0.12*10000/150 = 88 + 8 = 96.
  EXPECT_GT(target, 80u);
  EXPECT_LT(target, 110u);
  EXPECT_EQ(config.BagTargetForChunkSize(10, 1000000), 1u);
}

}  // namespace
}  // namespace qvt
