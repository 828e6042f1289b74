#include "bench_util/runner.h"

#include "core/evaluation.h"
#include "util/logging.h"

namespace qvt {

StatusOr<QualityCurves> RunWorkload(const Searcher& searcher,
                                    const Workload& workload,
                                    const GroundTruth& truth, size_t k,
                                    const StopRule& stop) {
  if (truth.num_queries() != workload.num_queries() || truth.k() < k) {
    return Status::InvalidArgument("ground truth does not match workload");
  }

  QualityCurves curves;
  curves.k = k;
  curves.queries_reaching.assign(k, 0);
  curves.mean_chunks_at.assign(k, 0.0);
  curves.mean_model_seconds_at.assign(k, 0.0);
  curves.mean_wall_seconds_at.assign(k, 0.0);

  std::vector<double> sum_chunks(k, 0.0);
  std::vector<double> sum_model(k, 0.0);
  std::vector<double> sum_wall(k, 0.0);

  for (size_t q = 0; q < workload.num_queries(); ++q) {
    const TruthSet truth_set(truth.TruthFor(q));
    size_t found_so_far = 0;

    const SearchObserver observer = [&](const SearchProgress& progress) {
      // A true top-k neighbor can never be evicted from the k-sized result
      // set, so this count is monotone; record first-crossing efforts.
      const size_t found = truth_set.CountFound(progress.result->Unordered());
      for (size_t n = found_so_far; n < found; ++n) {
        ++curves.queries_reaching[n];
        sum_chunks[n] += static_cast<double>(progress.chunks_read);
        sum_model[n] +=
            static_cast<double>(progress.model_elapsed_micros) * 1e-6;
        sum_wall[n] +=
            static_cast<double>(progress.wall_elapsed_micros) * 1e-6;
      }
      found_so_far = found;
    };

    auto result = searcher.Search(workload.Query(q), k, stop, observer);
    if (!result.ok()) return result.status();

    const QueryTelemetry& t = result->telemetry;
    curves.mean_completion_model_seconds +=
        static_cast<double>(t.model_micros) * 1e-6;
    curves.mean_completion_wall_seconds +=
        static_cast<double>(t.wall_micros) * 1e-6;
    curves.mean_chunks_to_completion += static_cast<double>(t.chunks_read);
    curves.mean_descriptors_to_completion +=
        static_cast<double>(t.descriptors_scanned);
    curves.mean_final_precision +=
        PrecisionAtK(result->neighbors, truth.TruthFor(q), k);
  }

  const double num_queries = static_cast<double>(workload.num_queries());
  for (size_t n = 0; n < k; ++n) {
    const double reached = static_cast<double>(curves.queries_reaching[n]);
    if (reached > 0) {
      curves.mean_chunks_at[n] = sum_chunks[n] / reached;
      curves.mean_model_seconds_at[n] = sum_model[n] / reached;
      curves.mean_wall_seconds_at[n] = sum_wall[n] / reached;
    }
  }
  curves.mean_completion_model_seconds /= num_queries;
  curves.mean_completion_wall_seconds /= num_queries;
  curves.mean_chunks_to_completion /= num_queries;
  curves.mean_descriptors_to_completion /= num_queries;
  curves.mean_final_precision /= num_queries;
  return curves;
}

StatusOr<BatchRunReport> RunMethodBatch(const SearchMethod& method,
                                        const Workload& workload,
                                        const GroundTruth* truth, size_t k,
                                        const StopRule& stop,
                                        size_t num_threads) {
  if (truth != nullptr &&
      (truth->num_queries() != workload.num_queries() || truth->k() < k)) {
    return Status::InvalidArgument("ground truth does not match workload");
  }

  const BatchSearcher batch_searcher(&method, num_threads);
  auto batch = batch_searcher.SearchAll(workload, k, stop);
  if (!batch.ok()) return batch.status();

  BatchRunReport report;
  report.num_queries = workload.num_queries();
  report.num_threads = batch->num_threads;
  report.batch_wall_seconds =
      static_cast<double>(batch->batch_wall_micros) * 1e-6;
  report.queries_per_second =
      report.batch_wall_seconds > 0.0
          ? static_cast<double>(report.num_queries) / report.batch_wall_seconds
          : 0.0;
  report.wall = batch->wall;
  report.model = batch->model;
  report.exact_queries = batch->exact_queries;

  // Reduce per-query metrics serially in input order, so the report is
  // identical whatever thread interleaving produced the results. The
  // counter means come straight off the batch's telemetry totals.
  if (truth != nullptr) {
    for (size_t q = 0; q < batch->results.size(); ++q) {
      report.mean_final_precision +=
          PrecisionAtK(batch->results[q].neighbors, truth->TruthFor(q), k);
    }
  }
  if (report.num_queries > 0) {
    const double n = static_cast<double>(report.num_queries);
    const QueryTelemetry& totals = batch->totals;
    report.mean_probes = static_cast<double>(totals.probes) / n;
    report.mean_index_entries_scanned =
        static_cast<double>(totals.index_entries_scanned) / n;
    report.mean_candidates_examined =
        static_cast<double>(totals.candidates_examined) / n;
    report.mean_descriptors_scanned =
        static_cast<double>(totals.descriptors_scanned) / n;
    report.mean_bytes_read = static_cast<double>(totals.bytes_read) / n;
    report.mean_chunks_read = static_cast<double>(totals.chunks_read) / n;
    report.max_probe_rows = totals.max_probe_rows;
    const uint64_t verdicts = totals.cache_hits + totals.cache_misses;
    report.cache_hit_rate =
        verdicts > 0
            ? static_cast<double>(totals.cache_hits) /
                  static_cast<double>(verdicts)
            : 0.0;
    report.mean_final_precision /= n;
  }
  return report;
}

StatusOr<std::vector<TailPoint>> RunTailSweep(
    const SearchMethod& method, const Workload& workload,
    const GroundTruth* truth, size_t k, const std::vector<size_t>& budgets,
    size_t num_threads) {
  if (budgets.empty()) {
    return Status::InvalidArgument("tail sweep needs at least one budget");
  }
  std::vector<TailPoint> points;
  points.reserve(budgets.size());
  for (size_t budget : budgets) {
    const StopRule stop =
        budget == 0 ? StopRule::Exact() : StopRule::MaxChunks(budget);
    QVT_ASSIGN_OR_RETURN(
        BatchRunReport report,
        RunMethodBatch(method, workload, truth, k, stop, num_threads));
    points.push_back(TailPoint{budget, std::move(report)});
  }
  return points;
}

}  // namespace qvt
