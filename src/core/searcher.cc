#include "core/searcher.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <utility>

#include "geometry/kernels.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace qvt {

namespace {

/// Chunk scans run block-by-block so the abandon threshold can tighten as
/// the result set fills, while each kernel call still amortizes dispatch
/// over many rows.
constexpr size_t kScanBlock = 256;

/// How many ranked chunks `stop` can ever read: the budget passed to
/// RankChunks. Only kMaxChunks knows it up front.
size_t RankBudget(const StopRule& stop) {
  return stop.kind == StopRule::Kind::kMaxChunks ? stop.max_chunks
                                                 : Searcher::kFullRanking;
}

/// Result sink of Search: the running k-NN set. Its k-th distance shrinks
/// as chunks are scanned, tightening both the abandon threshold and the
/// exact stop test.
class KnnSink {
 public:
  /// Search reads every ranked chunk it reaches.
  static constexpr bool kSkipsChunks = false;

  explicit KnnSink(size_t k) : result_set_(k) {}

  bool full() const { return result_set_.full(); }
  double KthDistance() const { return result_set_.KthDistance(); }
  bool Skips(double /*lower_bound*/) const { return false; }

  /// Scans the chunk in blocks through the batched kernel. Rows whose
  /// partial sum provably exceeds the current k-th distance are abandoned
  /// mid-row; AbandonThreshold()'s margin guarantees no row that could
  /// enter the result set (ties included) is ever pruned, so results are
  /// bit-identical to the plain per-row scan.
  void Scan(const ChunkData& data, std::span<const float> query,
            double* distances) {
    const size_t dim = data.dim;
    for (size_t b = 0; b < data.size(); b += kScanBlock) {
      const size_t bn = std::min(kScanBlock, data.size() - b);
      const double threshold =
          kernels::AbandonThreshold(result_set_.KthDistance());
      kernels::BatchSquaredDistanceAbandon(data.values.data() + b * dim, bn,
                                           dim, query, threshold, distances);
      for (size_t i = 0; i < bn; ++i) {
        const double sq = distances[i];
        if (sq == kernels::kAbandoned) continue;
        result_set_.Insert(data.ids[b + i], std::sqrt(sq));
      }
    }
  }

  const KnnResultSet* knn() const { return &result_set_; }
  std::vector<Neighbor> Take() const { return result_set_.Sorted(); }

 private:
  KnnResultSet result_set_;
};

/// Result sink of SearchRange: every row within the fixed query ball. The
/// ball never shrinks, so the sink is always "full" at distance `radius`,
/// and a chunk whose own lower bound lies outside the ball is skipped
/// without I/O.
class RangeSink {
 public:
  static constexpr bool kSkipsChunks = true;

  explicit RangeSink(double radius) : radius_(radius) {}

  bool full() const { return true; }
  double KthDistance() const { return radius_; }
  bool Skips(double lower_bound) const { return lower_bound > radius_; }

  /// Blocked kernel scan with one abandon threshold for every block.
  void Scan(const ChunkData& data, std::span<const float> query,
            double* distances) {
    const size_t dim = data.dim;
    const double threshold = kernels::AbandonThreshold(radius_);
    for (size_t b = 0; b < data.size(); b += kScanBlock) {
      const size_t bn = std::min(kScanBlock, data.size() - b);
      kernels::BatchSquaredDistanceAbandon(data.values.data() + b * dim, bn,
                                           dim, query, threshold, distances);
      for (size_t i = 0; i < bn; ++i) {
        const double sq = distances[i];
        if (sq == kernels::kAbandoned) continue;
        const double d = std::sqrt(sq);
        if (d <= radius_) neighbors_.push_back({data.ids[b + i], d});
      }
    }
  }

  const KnnResultSet* knn() const { return nullptr; }
  std::vector<Neighbor> Take() {
    std::sort(neighbors_.begin(), neighbors_.end(),
              [](const Neighbor& a, const Neighbor& b) {
                if (a.distance != b.distance) return a.distance < b.distance;
                return a.id < b.id;
              });
    return std::move(neighbors_);
  }

 private:
  double radius_;
  std::vector<Neighbor> neighbors_;
};

}  // namespace

Searcher::Searcher(const ChunkIndex* index, const DiskCostModel& cost_model,
                   ChunkCache* cache, PrefetcherOptions prefetch)
    : index_(index),
      cost_model_(cost_model),
      reader_(index, cache, prefetch, cost_model) {
  QVT_CHECK(index != nullptr);
}

int64_t Searcher::RankChunks(std::span<const float> query,
                             SearchScratch& scratch, size_t budget) const {
  const size_t num_chunks = index_->num_chunks();
  scratch.centroid_distance.resize(num_chunks);
  // One batched kernel call over the contiguous centroid matrix replaces
  // the old per-centroid vec::Distance loop. sqrt of the kernel's squared
  // distance is bit-identical to vec::Distance (same ascending-d reduction,
  // same single sqrt), so the ranking — ties broken by chunk id — is too.
  // Every distance is computed even under a budget: selecting the best
  // `budget` chunks needs them all, and range search reads them all.
  kernels::BatchSquaredDistance(index_->centroid_matrix().data(), num_chunks,
                                index_->dim(), query,
                                scratch.centroid_distance.data());
  for (double& d : scratch.centroid_distance) d = std::sqrt(d);
  // The 2005 model always reads the whole index, budget or not.
  const int64_t model_micros = cost_model_.IndexScanMicros(num_chunks);

  // Order the chunk ids by (distance, id). A kMaxChunks stop reads only
  // the best `budget` chunks: select them first, then order just that
  // prefix; the full ranking is the same sort over every chunk.
  std::vector<uint32_t>& order = scratch.rank_order;
  order.resize(num_chunks);
  std::iota(order.begin(), order.end(), 0u);
  const auto closer = [&](uint32_t a, uint32_t b) {
    const double da = scratch.centroid_distance[a];
    const double db = scratch.centroid_distance[b];
    return da != db ? da < db : a < b;
  };
  if (budget < num_chunks) {
    std::nth_element(order.begin(), order.begin() + budget, order.end(),
                     closer);
    order.resize(budget);
    std::sort(order.begin(), order.end(), closer);
    // The suffix bounds serve only the exact and epsilon rules, which
    // never pass a budget; over a cut order they would be wrong anyway.
    scratch.suffix_min_bound.clear();
    return model_micros;
  }
  std::sort(order.begin(), order.end(), closer);

  // Suffix minimum of the chunk lower bounds (centroid distance - radius)
  // over the ranked order. suffix_min_bound[r] is the closest any
  // descriptor in chunks ranked >= r can be to the query; the exact stop
  // rule fires when it exceeds the k-th distance. (The paper phrases the
  // rule as "minimum distance to the next chunk"; taking the minimum over
  // all remaining chunks is what makes the guarantee airtight, since
  // centroid order is not lower-bound order.)
  scratch.suffix_min_bound.resize(num_chunks + 1);
  scratch.suffix_min_bound[num_chunks] =
      std::numeric_limits<double>::infinity();
  for (size_t r = num_chunks; r-- > 0;) {
    const uint32_t chunk_id = scratch.rank_order[r];
    const double lower_bound =
        std::max(0.0, scratch.centroid_distance[chunk_id] -
                          index_->radius(chunk_id));
    scratch.suffix_min_bound[r] =
        std::min(scratch.suffix_min_bound[r + 1], lower_bound);
  }
  return model_micros;
}

void Searcher::FinishTelemetry(int64_t wall_micros, QueryTelemetry& t) const {
  t.wall_micros = wall_micros;
  t.scan.wall_micros = wall_micros - t.plan.wall_micros;
  t.scan.model_micros = t.model_micros - t.plan.model_micros;
  t.index_entries_scanned = index_->num_chunks();
  t.candidates_examined = t.descriptors_scanned;
}

template <typename Sink>
StatusOr<MethodResult> Searcher::ScanInRankOrder(
    std::span<const float> query, const StopRule& stop, size_t rank_budget,
    Sink& sink, const SearchObserver& observer, SearchScratch& s) const {
  WallClock wall;
  Stopwatch stopwatch(&wall);
  MethodResult result;
  QueryTelemetry& t = result.telemetry;

  // --- Step 1: rank chunks by centroid distance (§4.3). -------------------
  // Under a budget only that prefix is ranked: rank_order holds exactly the
  // chunks the stop rule lets the loop below read.
  t.model_micros = RankChunks(query, s, rank_budget);
  t.plan.model_micros = t.model_micros;
  t.plan.wall_micros = stopwatch.ElapsedMicros();

  // --- Steps 2 & 3: read chunks in rank order under the stop rule. --------
  // The read schedule is fully known now — the ranked chunks minus those
  // the sink skips on ranking data alone — so the pipelined path opens a
  // read-ahead stream over exactly it; delivery stays in rank order and the
  // stream's cache verdicts match the synchronous fetch, so everything
  // below is identical either way but wall time.
  const auto lower_bound = [&](uint32_t chunk_id) {
    return s.centroid_distance[chunk_id] - index_->radius(chunk_id);
  };
  std::span<const uint32_t> schedule = s.rank_order;
  if (Sink::kSkipsChunks && reader_.prefetcher() != nullptr) {
    s.fetch_order.clear();
    for (const uint32_t chunk_id : s.rank_order) {
      if (!sink.Skips(lower_bound(chunk_id))) s.fetch_order.push_back(chunk_id);
    }
    schedule = s.fetch_order;
  }
  const std::unique_ptr<PrefetchStream> stream = reader_.OpenStream(schedule);
  OverlappedScanTimeline timeline = reader_.Timeline(t.model_micros);
  s.distances.resize(kScanBlock);  // scan scratch, reserved once per query

  size_t r = 0;
  for (; r < s.rank_order.size(); ++r) {
    // Stop checks happen before reading the next chunk.
    if (stop.kind == StopRule::Kind::kMaxChunks &&
        t.chunks_read >= stop.max_chunks) {
      break;
    }
    if (stop.kind == StopRule::Kind::kTimeBudget &&
        t.model_micros >= stop.budget_micros) {
      break;
    }
    if (stop.kind == StopRule::Kind::kExact && sink.full() &&
        s.suffix_min_bound[r] * (1.0 + stop.epsilon) > sink.KthDistance()) {
      t.exact = stop.epsilon == 0.0;
      break;
    }
    const uint32_t chunk_id = s.rank_order[r];
    if (Sink::kSkipsChunks && sink.Skips(lower_bound(chunk_id))) continue;

    FetchedChunk chunk;
    QVT_RETURN_IF_ERROR(reader_.Fetch(chunk_id, stream.get(), &s.chunk,
                                      &chunk));
    sink.Scan(*chunk.data, query, s.distances.data());
    t.descriptors_scanned += chunk.data->size();
    const ChunkCharge charge = reader_.Charge(chunk_id, chunk.from_cache, &t);
    timeline.AddChunk(charge.io_micros, charge.cpu_micros);

    if (observer) {
      SearchProgress progress;
      progress.chunks_read = t.chunks_read;
      progress.chunk_descriptors = index_->location(chunk_id).num_descriptors;
      progress.descriptors_processed = t.descriptors_scanned;
      progress.model_elapsed_micros = t.model_micros;
      progress.wall_elapsed_micros = stopwatch.ElapsedMicros();
      progress.result = sink.knn();
      observer(progress);
    }
  }
  // Running out of ranked chunks under the exact rule means every chunk
  // that could matter was read: exact by construction.
  if (stop.kind == StopRule::Kind::kExact && r == s.rank_order.size()) {
    t.exact = true;
  }

  // A stop rule firing mid-order leaves reads in flight: cancel them now
  // (workers skip preads not yet started) and harvest the counters.
  if (stream != nullptr) t.prefetch = stream->Finish();
  result.neighbors = sink.Take();
  t.model_overlapped_micros = timeline.ElapsedMicros();
  FinishTelemetry(stopwatch.ElapsedMicros(), t);
  return result;
}

StatusOr<MethodResult> Searcher::Search(std::span<const float> query,
                                        size_t k, const StopRule& stop,
                                        const SearchObserver& observer,
                                        SearchScratch* scratch) const {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (query.size() != index_->dim()) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  SearchScratch local_scratch;
  KnnSink sink(k);
  return ScanInRankOrder(query, stop, RankBudget(stop), sink, observer,
                         scratch != nullptr ? *scratch : local_scratch);
}

StatusOr<MethodResult> Searcher::SearchRange(std::span<const float> query,
                                             double radius,
                                             const StopRule& stop,
                                             SearchScratch* scratch) const {
  if (radius < 0.0) {
    return Status::InvalidArgument("radius must be non-negative");
  }
  if (query.size() != index_->dim()) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  SearchScratch local_scratch;
  RangeSink sink(radius);
  // The ball does not shrink, so epsilon buys nothing: kExact stops once no
  // unread chunk can intersect it. Skipped chunks do not count against a
  // chunk budget, so the whole order is ranked.
  StopRule ball_stop = stop;
  ball_stop.epsilon = 0.0;
  return ScanInRankOrder(query, ball_stop, kFullRanking, sink, nullptr,
                         scratch != nullptr ? *scratch : local_scratch);
}

namespace {

/// Private state of one query inside a shared-scan batch. Everything that
/// evolves during the scan — result set, stop-rule inputs, accounting — is
/// per-query, so queries co-scanning one chunk never share mutable state.
struct SharedQueryState {
  std::span<const float> query;
  std::vector<double> wide_query;  ///< pre-widened for the fused kernels
  SearchScratch scratch;
  std::optional<KnnResultSet> result_set;
  /// telemetry.model_micros runs the as-if-alone serial model clock and
  /// telemetry.wall_micros the fair-share wall attribution.
  MethodResult result;
  /// (io, cpu) model charge of the chunk at each rank position, indexed by
  /// rank. The schedule may visit chunks out of rank order (kMaxChunks mode
  /// sorts by chunk id), so overlapped-timeline replay happens at finalize,
  /// in rank order — making model_overlapped_micros identical to the
  /// per-query path's in-order accumulation.
  std::vector<ChunkCharge> charges;
  size_t next_rank = 0;  ///< next rank position to demand (round mode)
};

/// One (query, rank position) pair attached to a scheduled chunk.
struct ChunkAttachment {
  SharedQueryState* state;
  size_t rank;
};

/// Reusable pointer arrays for one sweep worker. Hoisted out of the
/// per-chunk sweep: the executor visits thousands of chunks per batch and
/// three heap allocations per chunk would rival the scan itself.
struct SweepScratch {
  std::vector<const double*> queries;
  std::vector<double*> outs;
  std::vector<double> thresholds;
};

/// Sweeps one fetched chunk for all attached queries through the fused
/// multi-query kernel: kScanBlock row blocks, per-query abandon thresholds
/// recomputed from each query's own result set between blocks — the exact
/// per-query (threshold, completed rows) sequence of Searcher::Search, so
/// each query's result-set evolution is bit-identical to running alone.
void SweepChunkForQueries(const ChunkData& data,
                          std::span<const ChunkAttachment> atts,
                          SweepScratch& sweep) {
  const size_t dim = data.dim;
  const size_t nq = atts.size();
  sweep.queries.resize(nq);
  sweep.outs.resize(nq);
  sweep.thresholds.resize(nq);
  const double** queries = sweep.queries.data();
  double** outs = sweep.outs.data();
  double* thresholds = sweep.thresholds.data();
  for (size_t j = 0; j < nq; ++j) {
    SharedQueryState& q = *atts[j].state;
    queries[j] = q.wide_query.data();
    outs[j] = q.scratch.distances.data();
  }
  for (size_t b = 0; b < data.size(); b += kScanBlock) {
    const size_t bn = std::min(kScanBlock, data.size() - b);
    for (size_t j = 0; j < nq; ++j) {
      thresholds[j] = kernels::AbandonThreshold(
          atts[j].state->result_set->KthDistance());
    }
    kernels::MultiQueryBatchSquaredDistanceAbandon(
        data.values.data() + b * dim, bn, dim, queries, thresholds, nq,
        outs);
    for (size_t j = 0; j < nq; ++j) {
      KnnResultSet& result_set = *atts[j].state->result_set;
      const double* sq = outs[j];
      for (size_t i = 0; i < bn; ++i) {
        if (sq[i] == kernels::kAbandoned) continue;
        result_set.Insert(data.ids[b + i], std::sqrt(sq[i]));
      }
    }
  }
}

}  // namespace

StatusOr<std::vector<MethodResult>> Searcher::SearchShared(
    std::span<const std::span<const float>> queries, size_t k,
    const StopRule& stop, size_t num_threads,
    SharedScanStats* shared) const {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  for (const auto& query : queries) {
    if (query.size() != index_->dim()) {
      return Status::InvalidArgument("query dimensionality mismatch");
    }
  }
  const size_t num_chunks = index_->num_chunks();
  const size_t nq = queries.size();

  WallClock wall;

  // --- Plan: rank every query's chunks up front (§4.3 step 1). ------------
  std::vector<SharedQueryState> states(nq);
  for (size_t i = 0; i < nq; ++i) {
    SharedQueryState& q = states[i];
    q.query = queries[i];
    QueryTelemetry& t = q.result.telemetry;
    Stopwatch plan_watch(&wall);
    t.model_micros = RankChunks(q.query, q.scratch, RankBudget(stop));
    t.plan.model_micros = t.model_micros;
    t.plan.wall_micros = plan_watch.ElapsedMicros();
    t.wall_micros = t.plan.wall_micros;
    q.result_set.emplace(k);
    q.scratch.distances.resize(kScanBlock);  // sweep output, reserved once
    q.wide_query.resize(q.query.size());
    for (size_t d = 0; d < q.query.size(); ++d) {
      q.wide_query[d] = static_cast<double>(q.query[d]);
    }
  }
  if (shared != nullptr) {
    shared->enabled = true;
    shared->queries += nq;
  }

  std::optional<ThreadPool> pool;
  if (num_threads > 1 && nq > 1) pool.emplace(num_threads);
  ChunkData fetch_buffer;  // backs cache-less synchronous fetches
  // One sweep scratch per worker, reused across every chunk and schedule.
  std::vector<SweepScratch> sweeps(pool.has_value() ? pool->num_threads()
                                                    : 1);

  // Fetches and sweeps one schedule: the distinct chunk ids in `order`,
  // each swept once for its attached queries — chunk ci's attachments are
  // atts[range_end[ci-1] .. range_end[ci]). Per-attachment accounting is
  // "as-if-alone": the chunk is fetched once and charged to every attached
  // query in full under the shared fetch's cache verdict — the same verdict
  // the query-major path would see given the same cache state.
  auto process = [&](const std::vector<uint32_t>& order,
                     const std::vector<size_t>& range_end,
                     const std::vector<ChunkAttachment>& flat_atts)
      -> Status {
    const std::unique_ptr<PrefetchStream> stream = reader_.OpenStream(order);
    Status status = Status::OK();
    Stopwatch sweep_watch(&wall);
    int64_t last_micros = 0;
    for (size_t ci = 0; ci < order.size(); ++ci) {
      const uint32_t chunk_id = order[ci];
      FetchedChunk chunk;
      status = reader_.Fetch(chunk_id, stream.get(), &fetch_buffer, &chunk);
      if (!status.ok()) break;
      const ChunkData* data = chunk.data;

      const size_t att_begin = ci == 0 ? 0 : range_end[ci - 1];
      const std::span<const ChunkAttachment> atts =
          std::span<const ChunkAttachment>(flat_atts)
              .subspan(att_begin, range_end[ci] - att_begin);
      if (pool.has_value() && atts.size() > 1) {
        // Per-query state is disjoint, so splitting the attachment list
        // into contiguous ranges is safe and results are independent of
        // the thread count and of task completion order.
        const size_t tasks = std::min(pool->num_threads(), atts.size());
        for (size_t t = 0; t < tasks; ++t) {
          const size_t begin = atts.size() * t / tasks;
          const size_t end = atts.size() * (t + 1) / tasks;
          pool->Submit([&sweeps, &atts, data, begin, end, t] {
            SweepChunkForQueries(*data, atts.subspan(begin, end - begin),
                                 sweeps[t]);
          });
        }
        pool->Wait();
      } else {
        SweepChunkForQueries(*data, atts, sweeps.front());
      }

      // One clock read per chunk: the share is the delta since the
      // previous chunk finished (fetch + sweep), split evenly.
      const int64_t now_micros = sweep_watch.ElapsedMicros();
      const int64_t wall_share = (now_micros - last_micros) /
                                 static_cast<int64_t>(atts.size());
      last_micros = now_micros;
      for (const ChunkAttachment& att : atts) {
        SharedQueryState& q = *att.state;
        QueryTelemetry& t = q.result.telemetry;
        t.descriptors_scanned += data->size();
        const ChunkCharge charge =
            reader_.Charge(chunk_id, chunk.from_cache, &t);
        if (q.charges.size() > att.rank) {
          q.charges[att.rank] = charge;
        } else {
          q.charges.push_back(charge);  // round mode pushes in rank order
        }
        t.wall_micros += wall_share;
      }
      if (shared != nullptr) {
        ++shared->chunk_fetches;
        shared->chunk_attachments += atts.size();
        shared->rows_fetched += data->size();
        shared->rows_scan_shared +=
            static_cast<uint64_t>(atts.size() - 1) * data->size();
        ++shared->coscan_histogram[SharedScanStats::HistogramBucket(
            atts.size())];
      }
    }
    if (stream != nullptr) {
      const PrefetchStats stats = stream->Finish();
      if (shared != nullptr) shared->prefetch += stats;
    }
    return status;
  };

  // Turns a flat (chunk id, attachment) demand list into the grouped
  // (order, range_end, attachments) arrays process() consumes. The
  // schedule is sorted by the best (lowest) rank any attached query gave
  // the chunk, ties by chunk id: results are order-independent (the result
  // set's (distance, id) ordering fixes the final top-k), but
  // early-abandon thresholds are not — sweeping everyone's best-ranked
  // chunks first tightens every query's k-th distance almost as fast as
  // its private rank order would, keeping the pruning power of the
  // per-query path. Deterministic: the key is derived from the
  // (deterministic) plans, never from timing.
  std::vector<size_t> best_rank;  // per chunk id; reused across rounds
  auto run_schedule =
      [&](std::vector<std::pair<uint32_t, ChunkAttachment>>& demands)
      -> Status {
    best_rank.assign(num_chunks, static_cast<size_t>(-1));
    for (const auto& [chunk_id, att] : demands) {
      best_rank[chunk_id] = std::min(best_rank[chunk_id], att.rank);
    }
    // Stable: attachments of one chunk keep query-submission order.
    std::stable_sort(demands.begin(), demands.end(),
                     [&](const auto& a, const auto& b) {
                       if (best_rank[a.first] != best_rank[b.first]) {
                         return best_rank[a.first] < best_rank[b.first];
                       }
                       return a.first < b.first;
                     });
    std::vector<uint32_t> order;
    std::vector<size_t> range_end;
    std::vector<ChunkAttachment> atts;
    atts.reserve(demands.size());
    for (const auto& [chunk_id, att] : demands) {
      if (order.empty() || order.back() != chunk_id) {
        order.push_back(chunk_id);
        range_end.push_back(atts.size());
      }
      atts.push_back(att);
      range_end.back() = atts.size();
    }
    return process(order, range_end, atts);
  };

  if (stop.kind == StopRule::Kind::kMaxChunks) {
    // The scanned set is statically known: each query reads exactly its
    // first max_chunks ranked chunks, so the whole batch is one schedule
    // over the distinct demanded chunks — each fetched and decoded once no
    // matter how many queries want it. Scanning out of rank order is safe:
    // the result set's (distance, id) ordering makes the final top-k
    // independent of insertion order, and rank-indexed charge replay
    // restores the modeled timeline (see DESIGN.md).
    const size_t budget = std::min(stop.max_chunks, num_chunks);
    std::vector<std::pair<uint32_t, ChunkAttachment>> demands;
    demands.reserve(nq * budget);
    for (SharedQueryState& q : states) {
      // The plan ranked exactly this prefix (rank_order.size() == budget).
      q.charges.resize(budget);
      for (size_t r = 0; r < budget; ++r) {
        demands.emplace_back(q.scratch.rank_order[r],
                             ChunkAttachment{&q, r});
      }
    }
    QVT_RETURN_IF_ERROR(run_schedule(demands));
  } else {
    // Exact / epsilon / time-budget stops depend on evolving per-query
    // state, so the schedule is rebuilt in rounds: every live query
    // re-checks its stop rule exactly where the per-query loop would (at
    // its own next rank position, against its own result set and model
    // clock), detaches if it fires, else demands its next ranked chunk;
    // one round's demands coalesce into one ascending-chunk-id pass. Each
    // query's chunks are still visited in exact rank order across rounds,
    // so its (threshold, chunk, model-clock) sequence matches the
    // per-query path step for step.
    std::vector<SharedQueryState*> live;
    live.reserve(nq);
    for (SharedQueryState& q : states) live.push_back(&q);
    while (!live.empty()) {
      std::vector<std::pair<uint32_t, ChunkAttachment>> demands;
      demands.reserve(live.size());
      std::vector<SharedQueryState*> still_live;
      still_live.reserve(live.size());
      for (SharedQueryState* q : live) {
        const size_t r = q->next_rank;
        if (r == q->scratch.rank_order.size()) {
          // Scanned every chunk: exact by construction.
          if (stop.kind == StopRule::Kind::kExact) {
            q->result.telemetry.exact = true;
          }
          continue;
        }
        if (stop.kind == StopRule::Kind::kTimeBudget &&
            q->result.telemetry.model_micros >= stop.budget_micros) {
          continue;
        }
        if (stop.kind == StopRule::Kind::kExact && q->result_set->full() &&
            q->scratch.suffix_min_bound[r] * (1.0 + stop.epsilon) >
                q->result_set->KthDistance()) {
          q->result.telemetry.exact = stop.epsilon == 0.0;
          continue;
        }
        demands.emplace_back(q->scratch.rank_order[r],
                             ChunkAttachment{q, r});
        q->next_rank = r + 1;
        still_live.push_back(q);
      }
      live = std::move(still_live);
      if (demands.empty()) break;
      QVT_RETURN_IF_ERROR(run_schedule(demands));
    }
  }

  // --- Finalize: replay charges in rank order, assemble results. ----------
  std::vector<MethodResult> results;
  results.reserve(nq);
  for (SharedQueryState& q : states) {
    QueryTelemetry& t = q.result.telemetry;
    OverlappedScanTimeline timeline = reader_.Timeline(t.plan.model_micros);
    for (size_t r = 0; r < t.chunks_read; ++r) {
      timeline.AddChunk(q.charges[r].io_micros, q.charges[r].cpu_micros);
    }
    q.result.neighbors = q.result_set->Sorted();
    t.model_overlapped_micros = timeline.ElapsedMicros();
    FinishTelemetry(t.wall_micros, t);
    results.push_back(std::move(q.result));
  }
  return results;
}

}  // namespace qvt
