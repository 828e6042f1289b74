#ifndef QVT_STORAGE_PREFETCHER_H_
#define QVT_STORAGE_PREFETCHER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "storage/chunk_cache.h"
#include "storage/chunk_file.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace qvt {

class PrefetchStream;

/// Per-query prefetch counters, merged into QueryTelemetry. On the synchronous
/// path all four stay zero.
struct PrefetchStats {
  uint64_t issued = 0;     ///< background reads this stream asked for
  uint64_t used = 0;       ///< issued reads whose data the scan consumed
  uint64_t wasted = 0;     ///< reads that completed but were never consumed
  uint64_t cancelled = 0;  ///< reads abandoned before producing data

  PrefetchStats& operator+=(const PrefetchStats& other) {
    issued += other.issued;
    used += other.used;
    wasted += other.wasted;
    cancelled += other.cancelled;
    return *this;
  }
};

/// Reads chunk `chunk_id` into `*out`. Must be safe to call concurrently
/// from pool workers (ChunkIndex::ReadChunk is: positional preads plus
/// thread-local decode scratch).
using ChunkReadFn = std::function<Status(uint32_t chunk_id, ChunkData* out)>;

/// Padded page count of chunk `chunk_id` — the ChunkCache charge unit.
using ChunkPagesFn = std::function<uint32_t(uint32_t chunk_id)>;

struct PrefetcherOptions {
  /// Parses the QVT_PREFETCH_DEPTH environment variable, returning
  /// `fallback` when it is unset or unparsable. Clamped to [0, 64].
  static size_t DepthFromEnvOr(size_t fallback);

  /// Chunks kept in flight ahead of the scan cursor. 0 disables the
  /// pipeline entirely (MakeIndexPrefetcher then returns nullptr). The
  /// default honors QVT_PREFETCH_DEPTH so the whole suite can be flipped to
  /// the disabled configuration from the environment (mirrors QVT_SIMD).
  size_t depth = DepthFromEnvOr(4);

  /// Background read workers shared by all streams of one prefetcher.
  size_t io_threads = 2;

  /// Reusable read buffers kept pooled; 0 picks depth + io_threads.
  size_t pool_buffers = 0;
};

/// Asynchronous chunk read-ahead shared by all queries against one index.
///
/// A query's read schedule is fully known the moment RankChunks returns, so
/// the prefetcher walks that order `depth` chunks ahead of the scan, issuing
/// positional preads on its own ThreadPool into pooled buffers. Reads are
/// single-flighted across streams: two queries prefetching the same missing
/// chunk share one pread (the second attaches to the first's in-flight job).
///
/// Thread-safe: NewStream may be called from many searching threads; the
/// read registry and buffer pool are internally synchronized. The functions
/// and cache passed to the constructor must outlive the prefetcher, and all
/// streams must be destroyed before it.
class ChunkPrefetcher {
 public:
  /// `cache` may be null (pipeline without a cache: every chunk is read,
  /// scanned out of the pooled buffer, and recycled). Requires depth >= 1;
  /// callers express "disabled" by not constructing a prefetcher.
  ChunkPrefetcher(ChunkReadFn read_fn, ChunkPagesFn pages_fn,
                  ChunkCache* cache, PrefetcherOptions options);
  ~ChunkPrefetcher();

  ChunkPrefetcher(const ChunkPrefetcher&) = delete;
  ChunkPrefetcher& operator=(const ChunkPrefetcher&) = delete;

  size_t depth() const { return options_.depth; }

  /// Opens a read-ahead stream over `order` (borrowed; must stay valid and
  /// unmodified for the stream's lifetime) and starts its first reads.
  std::unique_ptr<PrefetchStream> NewStream(std::span<const uint32_t> order);

 private:
  friend class PrefetchStream;

  /// One background read, shareable by several streams (single-flight).
  /// All fields are guarded by `mu`.
  struct ReadJob {
    std::mutex mu;
    std::condition_variable cv;
    int interested = 0;   // streams that will consume or have attached
    bool done = false;    // read finished (successfully or not) or skipped
    bool taken = false;   // `data` was moved out by a consumer
    Status status;
    ChunkData data;       // valid iff done && status.ok() && !taken
  };

  /// Returns the job for `chunk_id`, attaching to a compatible in-flight
  /// one or creating (and scheduling) a fresh one.
  std::shared_ptr<ReadJob> AcquireJob(uint32_t chunk_id);

  /// Pool-worker body: runs (or skips, if no stream is interested anymore)
  /// the read for `chunk_id`.
  void RunRead(uint32_t chunk_id, std::shared_ptr<ReadJob> job);

  /// Drops the registry entry for `chunk_id` if it still maps to `job`.
  void EraseJob(uint32_t chunk_id, const std::shared_ptr<ReadJob>& job);

  ChunkData AcquireBuffer();
  void ReleaseBuffer(ChunkData&& buffer);

  const ChunkReadFn read_fn_;
  const ChunkPagesFn pages_fn_;
  ChunkCache* const cache_;
  const PrefetcherOptions options_;

  std::mutex registry_mu_;
  std::unordered_map<uint32_t, std::weak_ptr<ReadJob>> reads_;

  std::mutex pool_mu_;
  std::vector<ChunkData> free_buffers_;

  // Last member: destroyed first, draining queued read tasks while every
  // other member they touch is still alive.
  std::unique_ptr<ThreadPool> workers_;
};

/// One query's read-ahead pipeline over its ranked chunk order, produced by
/// ChunkPrefetcher::NewStream. Next() hands chunks back strictly in rank
/// order while up to `depth` reads run ahead on the background workers.
///
/// The stream is deliberately conservative about the cache so that a
/// pipelined search is indistinguishable from a synchronous one in
/// everything but wall time:
///  * issue time peeks with ChunkCache::Contains() only — no stats, no LRU
///    touch — to decide whether a read is worth starting;
///  * consume time performs the authoritative Get(): its hit/miss verdict
///    (not the peek's) decides the cost-model charge, and only consumed
///    chunks are ever Put(). A prefetched buffer that the stop rule strands
///    is dropped back into the buffer pool, so cache contents, stats and
///    LRU order match the synchronous path exactly.
///
/// Not thread-safe: one stream belongs to one searching thread. The stream
/// must not outlive its ChunkPrefetcher or the order span it was given.
class PrefetchStream {
 public:
  ~PrefetchStream();

  PrefetchStream(const PrefetchStream&) = delete;
  PrefetchStream& operator=(const PrefetchStream&) = delete;

  /// Delivers the next chunk of the order, blocking until its read (if any)
  /// completes. On success `*data` points at the descriptors — kept alive by
  /// `*cache_ref` when cached, else by the stream until the following
  /// Next()/Finish() — and `*from_cache` reports the authoritative cache
  /// verdict exactly as the synchronous ChunkReader::Fetch would. A failed read's
  /// status is returned here, at the position the synchronous path would
  /// have hit it. Must be called at most once per chunk in the order.
  Status Next(std::shared_ptr<const ChunkData>* cache_ref,
              const ChunkData** data, bool* from_cache);

  /// Cancels every read still outstanding (workers that have not started
  /// them skip the pread), waits for none of them, and classifies leftovers:
  /// completed-but-unconsumed reads count `wasted`, the rest `cancelled`.
  /// Idempotent; returns this stream's final counters. The destructor calls
  /// it implicitly — call it explicitly to harvest the stats.
  PrefetchStats Finish();

 private:
  friend class ChunkPrefetcher;

  struct Slot {
    uint32_t chunk_id = 0;
    // Null when the issue-time peek found the chunk cached (no read).
    std::shared_ptr<ChunkPrefetcher::ReadJob> job;
  };

  PrefetchStream(ChunkPrefetcher* owner, std::span<const uint32_t> order);

  /// Tops the window up to `depth` outstanding slots.
  void Pump();

  /// Synchronous fallback read + publish, for the rare consume-time miss
  /// with no prefetched buffer to use (peek said hit but the chunk was
  /// evicted meanwhile, or a sibling stream took the shared buffer).
  Status FetchSync(uint32_t chunk_id,
                   std::shared_ptr<const ChunkData>* cache_ref,
                   const ChunkData** data);

  /// Releases this stream's interest in `job`; if it was the last stream
  /// and the read completed unconsumed, recycles the buffer. Returns
  /// whether the job was already done (wasted vs cancelled classification).
  bool AbandonJob(ChunkPrefetcher::ReadJob& job);

  /// Returns the no-cache-mode buffer of the previous Next() to the pool.
  void ReleaseCurrent();

  ChunkPrefetcher* owner_;
  std::span<const uint32_t> order_;
  size_t next_issue_ = 0;            // order_ index of the next slot to open
  std::deque<Slot> window_;          // outstanding slots, front = next Next()
  ChunkData current_;                // scan buffer when running cache-less
  bool holds_current_ = false;
  PrefetchStats stats_;
  bool finished_ = false;
};

}  // namespace qvt

#endif  // QVT_STORAGE_PREFETCHER_H_
