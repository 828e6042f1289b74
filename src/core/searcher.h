#ifndef QVT_CORE_SEARCHER_H_
#define QVT_CORE_SEARCHER_H_

#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "core/chunk_index.h"
#include "core/chunk_reader.h"
#include "core/result_set.h"
#include "core/telemetry.h"
#include "storage/chunk_cache.h"
#include "storage/disk_cost_model.h"
#include "storage/prefetcher.h"
#include "util/statusor.h"

namespace qvt {

/// When to stop reading chunks (§4.3). kExact is the run-to-conclusion mode;
/// the other two are the paper's approximate stop rules.
struct StopRule {
  enum class Kind {
    /// Stop only when no unread chunk can contain a closer neighbor:
    /// k neighbors found and the minimum distance to every remaining chunk
    /// (centroid distance minus radius) exceeds the current k-th distance.
    /// Guarantees the exact result.
    kExact,
    /// Stop after reading a fixed number of chunks.
    kMaxChunks,
    /// Stop once the modeled elapsed time passes a budget (§5.7 lesson 2:
    /// "elapsed time is a more natural stop rule than the number of chunks").
    kTimeBudget,
  };

  Kind kind = Kind::kExact;
  size_t max_chunks = 0;        ///< for kMaxChunks
  int64_t budget_micros = 0;    ///< for kTimeBudget (modeled time)
  /// (1+epsilon)-approximation slack on the exact rule: stop once no unread
  /// chunk can contain a neighbor closer than kth / (1 + epsilon). This is
  /// the AC-NN idea of Ciaccia & Patella (ICDE'00) and the effect of the
  /// VA-BND's empirical bound shrinking (§6: approaches that "account for an
  /// additional epsilon value when computing the distances to chunks, making
  /// chunks somehow smaller"). 0 = exact.
  double epsilon = 0.0;

  static StopRule Exact() { return {}; }
  static StopRule MaxChunks(size_t n) {
    return {Kind::kMaxChunks, n, 0, 0.0};
  }
  static StopRule TimeBudget(int64_t micros) {
    return {Kind::kTimeBudget, 0, micros, 0.0};
  }
  static StopRule EpsilonApproximate(double epsilon) {
    return {Kind::kExact, 0, 0, epsilon};
  }
};

/// Per-chunk progress reported to the observer after each chunk is
/// processed. `result` points at the live result set (valid only during the
/// callback).
struct SearchProgress {
  size_t chunks_read = 0;            ///< chunks processed so far (>= 1)
  uint32_t chunk_descriptors = 0;    ///< population of the chunk just read
  uint64_t descriptors_processed = 0;
  int64_t model_elapsed_micros = 0;  ///< cost-model time incl. index scan
  int64_t wall_elapsed_micros = 0;   ///< real time on this host
  const KnnResultSet* result = nullptr;
};

using SearchObserver = std::function<void(const SearchProgress&)>;

/// Per-call working memory of one search. A Searcher holds no mutable state
/// of its own; callers that issue many queries from one thread pass the same
/// scratch back in to reuse its allocations, and concurrent callers simply
/// use one scratch per thread.
struct SearchScratch {
  /// Chunk ids by ascending (centroid distance, id): every chunk, or only
  /// the ranked budget prefix (see Searcher::RankChunks).
  std::vector<uint32_t> rank_order;
  std::vector<double> centroid_distance;  ///< by chunk id, always complete
  std::vector<double> suffix_min_bound;   ///< empty after a budget cut
  std::vector<double> distances;    ///< per-block kernel output
  std::vector<uint32_t> fetch_order;  ///< range search's pipelined schedule
  ChunkData chunk;
};

/// The approximate search algorithm of §4.3 over a ChunkIndex:
///  1. compute the distance from the query to every chunk centroid and rank
///     chunks by increasing distance;
///  2. read chunks in rank order, scanning all descriptors of each chunk
///     against the query and updating the running k-NN set;
///  3. stop per the StopRule.
///
/// Every search fills the unified MethodResult / QueryTelemetry record
/// itself. Elapsed time is tracked on the host wall clock and on the
/// DiskCostModel (deterministic 2005-hardware timeline used by the
/// experiment figures — see DESIGN.md substitution 2): telemetry.model_micros
/// is the paper's serial charge, model_overlapped_micros the prefetch
/// pipeline's OverlappedScanTimeline, plan the ranking share of both clocks
/// and scan the rest. Every chunk is fetched and charged through the one
/// ChunkReader step.
///
/// Thread-safe: all search state lives in a per-call SearchScratch, the
/// chunk file uses positional reads, and the optional ChunkCache is
/// internally synchronized, so one Searcher may serve queries from many
/// threads concurrently (see BatchSearcher and DESIGN.md "Threading model").
class Searcher {
 public:
  /// `index` is borrowed and must outlive the searcher. `cache`, when
  /// non-null, serves chunk reads LRU-style: hits skip the chunk file and
  /// are charged CPU only by the cost model (the paper eliminated such
  /// buffering effects by round-robining queries, §5.4; passing a cache
  /// deliberately turns them back on).
  ///
  /// `prefetch` configures the asynchronous read-ahead pipeline
  /// (storage/prefetcher.h): with depth >= 1 (the default; honors
  /// QVT_PREFETCH_DEPTH) every query walks its ranked chunk order through a
  /// PrefetchStream that overlaps disk I/O with the SIMD scan. Results are
  /// bit-identical to depth 0 — prefetching changes only *when* bytes
  /// arrive, never what is scanned or how it is charged.
  Searcher(const ChunkIndex* index, const DiskCostModel& cost_model,
           ChunkCache* cache = nullptr, PrefetcherOptions prefetch = {});

  /// Runs one query for the k nearest neighbors under `stop`.
  /// `observer`, when set, is invoked after every processed chunk.
  /// `scratch`, when non-null, supplies reusable working memory; pass one
  /// scratch per thread when calling concurrently.
  StatusOr<MethodResult> Search(std::span<const float> query, size_t k,
                                const StopRule& stop,
                                const SearchObserver& observer = nullptr,
                                SearchScratch* scratch = nullptr) const;

  /// Chunk-major batched execution of `queries` (all for the k nearest
  /// neighbors under `stop`): every query's chunk rank order is planned up
  /// front, demands are grouped into a chunk -> pending-queries schedule,
  /// and each scheduled chunk is fetched and decoded once, then swept once
  /// for all attached queries through the fused multi-query kernels. Each
  /// query keeps its own result set, scratch, stop-rule state, and
  /// accounting, and detaches from the schedule the moment its stop rule
  /// fires, so per-query results — neighbors, chunks_read, descriptors,
  /// exact verdicts, and (cache-less) modeled times — are bit-identical to
  /// Search() run per query (see DESIGN.md "Chunk-major batched
  /// execution"). With a shared ChunkCache the one fetch per chunk makes
  /// cache verdicts (and hence modeled times) differ from the query-major
  /// interleaving, exactly as concurrent query-major batches already do.
  ///
  /// Under kMaxChunks the whole scanned set is known statically and the
  /// schedule is a single pass over the distinct demanded chunks; the other
  /// stop rules re-plan round-by-round (every live query demands its next
  /// ranked chunk, demands are coalesced, stop rules are re-checked between
  /// rounds). `num_threads` > 1 splits each chunk's attached queries across
  /// a thread pool (per-query state is disjoint, so results do not depend
  /// on the thread count). `shared`, when non-null, accumulates the batch's
  /// coalescing ledger. Per-query wall times are fair-share attributions
  /// (plan measured per query; each chunk's fetch+scan wall split evenly
  /// across its attached queries); per-query prefetch counters stay zero —
  /// the merged streams report through `shared->prefetch`.
  StatusOr<std::vector<MethodResult>> SearchShared(
      std::span<const std::span<const float>> queries, size_t k,
      const StopRule& stop, size_t num_threads = 1,
      SharedScanStats* shared = nullptr) const;

  /// Range (epsilon-neighbor) search: every stored descriptor within
  /// `radius` of `query`, ascending by distance — the query type of the BAG
  /// paper itself (Berrani et al., CIKM'03: "approximate searches:
  /// epsilon-neighbors + precision"). Chunks are scanned in centroid-rank
  /// order; kMaxChunks and kTimeBudget stop rules yield approximate
  /// (subset) answers, kExact stops once no unread chunk can intersect the
  /// query ball.
  StatusOr<MethodResult> SearchRange(std::span<const float> query,
                                     double radius, const StopRule& stop,
                                     SearchScratch* scratch = nullptr) const;

  /// RankChunks' default budget: rank every chunk.
  static constexpr size_t kFullRanking = std::numeric_limits<size_t>::max();

  /// Step 1 of §4.3 into `scratch`: centroid distances (all of them, via
  /// one batched kernel call over the index's contiguous centroid matrix),
  /// then the rank order by ascending (distance, chunk id).
  ///
  /// With a `budget` — a kMaxChunks stop — below num_chunks, only the best
  /// `budget` chunks are selected (std::nth_element) and sorted, rank_order
  /// holds just that prefix, and suffix_min_bound is left empty. Otherwise
  /// every chunk is sorted by the same comparator and the suffix-minimum
  /// lower bounds the exact and epsilon rules stop on are filled. Either
  /// way rank_order is the prefix of the full order. Returns the modeled
  /// index-scan charge: that of the whole index, whatever the budget.
  /// Public so tests can pin the ranking to the scalar per-centroid
  /// reference.
  int64_t RankChunks(std::span<const float> query, SearchScratch& scratch,
                     size_t budget = kFullRanking) const;

  /// The prefetch pipeline backing this searcher, or null at depth 0.
  const ChunkPrefetcher* prefetcher() const { return reader_.prefetcher(); }

  /// The chunk index this searcher scans (borrowed).
  const ChunkIndex* index() const { return index_; }

 private:
  /// The query-major rank-order loop of Search and SearchRange: rank under
  /// `rank_budget`, then fetch, scan into `sink` and charge chunk by chunk
  /// until `stop` fires. `Sink` is the result collector (k-NN set or range
  /// list) and its share of the stop test; templating on it keeps the
  /// per-row scan loop as tight as a hand-written one.
  template <typename Sink>
  StatusOr<MethodResult> ScanInRankOrder(std::span<const float> query,
                                         const StopRule& stop,
                                         size_t rank_budget, Sink& sink,
                                         const SearchObserver& observer,
                                         SearchScratch& s) const;

  /// Completes a chunked query's telemetry from its serial clock, plan
  /// split and chunk ledger: scan = total - plan on both clocks, the index
  /// entries ranked, and every scanned row as a candidate.
  void FinishTelemetry(int64_t wall_micros, QueryTelemetry& t) const;

  const ChunkIndex* index_;
  DiskCostModel cost_model_;
  /// Fetches and charges every chunk; owns the read-ahead pipeline (null at
  /// depth 0), shared by all queries and threads of this searcher.
  ChunkReader reader_;
};

}  // namespace qvt

#endif  // QVT_CORE_SEARCHER_H_
