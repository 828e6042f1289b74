#ifndef QVT_CORE_BATCH_SEARCHER_H_
#define QVT_CORE_BATCH_SEARCHER_H_

#include <cstdint>
#include <vector>

#include "core/search_method.h"
#include "descriptor/workload.h"
#include "util/stats.h"
#include "util/statusor.h"

namespace qvt {

/// Latency distribution over the per-query times of one batch, in
/// microseconds. Per-query latency variability under concurrent load is a
/// first-class metric for cluster-based indexes (Tavenard et al.); p95/p99
/// expose the tail the mean hides.
struct LatencyPercentiles {
  int64_t p50 = 0;
  int64_t p95 = 0;
  int64_t p99 = 0;
  int64_t max = 0;
  double mean = 0.0;

  /// The one way a LatencyPercentiles is derived from samples: the
  /// SampleStats linear-interpolation convention (see
  /// SampleStats::Percentile), rounded to whole microseconds. Both
  /// BatchSearcher and the bench runner's tail sweep build their reports
  /// through this helper, so small-batch percentiles agree bit-for-bit
  /// across paths. All zero when `stats` is empty.
  static LatencyPercentiles FromStats(const SampleStats& stats);

  /// p99 / p50 — the tail-amplification factor balanced chunking targets.
  /// 0 when p50 is 0.
  double TailRatio() const {
    return p50 > 0 ? static_cast<double>(p99) / static_cast<double>(p50)
                   : 0.0;
  }
};

/// Outcome of one batch: per-query results in input order plus aggregate
/// timing and the summed telemetry of every query.
struct BatchSearchResult {
  /// results[i] answers queries.Query(i), regardless of which worker ran it.
  std::vector<MethodResult> results;
  /// Wall time of the whole batch (submission to last completion).
  int64_t batch_wall_micros = 0;
  /// Distribution of per-query wall latencies.
  LatencyPercentiles wall;
  /// Distribution of per-query modeled (cost-model) latencies. Independent
  /// of the thread count: the model charges each query as if it ran alone.
  /// All zero for methods without a disk model.
  LatencyPercentiles model;
  /// Sum of the per-query QueryTelemetry records (timers and counters; the
  /// unified schema every method emits). Includes the shared executor's
  /// merged prefetch-stream counters when the batch ran chunk-major (the
  /// per-query records keep theirs at zero in that mode).
  QueryTelemetry totals;
  /// Coalescing ledger of the chunk-major shared-scan executor; all zero
  /// (enabled = false) when the batch ran query-major.
  SharedScanStats shared;
  /// Queries whose answer the method proved exact.
  size_t exact_queries = 0;
  size_t num_threads = 1;
};

/// Fans a query workload out across a fixed-size thread pool. Every worker
/// pulls query indices from a shared atomic cursor, so the division of labor
/// adapts to per-query cost skew (the paper's giant BAG chunks make that
/// skew severe, Fig. 1).
///
/// Drives any SearchMethod: the chunked searcher, the exact scan, or any of
/// the related-work indexes, all constructed by name through MethodRegistry.
/// The method must be Prepare()d and is then called concurrently (the
/// SearchMethod contract requires const thread-safe Search).
///
/// With num_threads == 1 no pool is created and queries run in submission
/// order on the calling thread — bit-identical to looping over the method's
/// Search, which keeps the paper's figure benchmarks reproducible. With
/// more threads, per-query neighbors and telemetry counters are still
/// deterministic (all per-query state is private; ties are broken by
/// descriptor id); only wall-clock figures vary run to run.
/// Execution mode: when the method supports shared scans (chunked, pq) and
/// the batch has more than one query, SearchAll runs chunk-major by default
/// — all queries' chunk schedules are merged so every chunk is fetched,
/// decoded, and swept once for all the queries that want it, through the
/// fused multi-query kernels. Identical query vectors are deduplicated
/// first (one plan and scan, results fanned back out). Per-query results
/// are bit-identical to the query-major path; only wall-clock attribution
/// and (with a shared ChunkCache) cache verdicts differ, exactly as they
/// already do between thread counts. Pass `shared_scan = false` to force
/// query-major execution.
class BatchSearcher {
 public:
  /// `method` is borrowed and must outlive the batch searcher.
  BatchSearcher(const SearchMethod* method, size_t num_threads,
                bool shared_scan = true);

  /// Runs every query of `queries` for its k nearest neighbors under `stop`.
  /// Fails with the first per-query error, if any.
  StatusOr<BatchSearchResult> SearchAll(const Workload& queries, size_t k,
                                        const StopRule& stop) const;

  size_t num_threads() const { return num_threads_; }

 private:
  const SearchMethod* method_;
  size_t num_threads_;
  bool shared_scan_;
};

}  // namespace qvt

#endif  // QVT_CORE_BATCH_SEARCHER_H_
