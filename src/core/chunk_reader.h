#ifndef QVT_CORE_CHUNK_READER_H_
#define QVT_CORE_CHUNK_READER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "core/chunk_index.h"
#include "core/telemetry.h"
#include "storage/chunk_cache.h"
#include "storage/disk_cost_model.h"
#include "storage/prefetcher.h"
#include "util/status.h"

namespace qvt {

/// One chunk handed to a scan. `data` points into `cache_ref` when the
/// cache or a cache-backed prefetch stream owns the bytes, else into the
/// stream's or the caller's buffer; it stays valid until the next fetch
/// through the same stream or buffer.
struct FetchedChunk {
  std::shared_ptr<const ChunkData> cache_ref;
  const ChunkData* data = nullptr;
  /// The cache verdict that decides the charge: true when the bytes were
  /// resident and the chunk file was not read.
  bool from_cache = false;
};

/// (io, cpu) model charge of one chunk read, the OverlappedScanTimeline's
/// input; io is 0 when the chunk came from the cache.
struct ChunkCharge {
  int64_t io_micros = 0;
  int64_t cpu_micros = 0;
};

/// The per-chunk read step of §4.3 step 2, shared by every loop that reads
/// the chunk file: Searcher's query-major, range and chunk-major scans and
/// PqMethod's per-query and shared reranks. Fetch() decides where a chunk
/// comes from; Charge() decides what reading it costs one query. Shared-scan
/// paths fetch a chunk once and charge every attached query, each under the
/// one fetch's cache verdict.
///
/// Thread-safe: the prefetcher and cache are internally synchronized, and
/// everything per-query lives in the caller's stream, buffer and telemetry.
class ChunkReader {
 public:
  /// `index` and `cache` (optional) are borrowed. `prefetch.depth` >= 1
  /// creates the read-ahead pipeline streams are opened on. `cost_model`
  /// empty: Charge() leaves the model clocks alone (methods without a disk
  /// model).
  ChunkReader(const ChunkIndex* index, ChunkCache* cache,
              PrefetcherOptions prefetch,
              std::optional<DiskCostModel> cost_model);

  /// A read-ahead stream over `order` (borrowed for the stream's lifetime),
  /// or null at prefetch depth 0.
  std::unique_ptr<PrefetchStream> OpenStream(
      std::span<const uint32_t> order) const;

  /// An overlapped timeline at this reader's prefetch depth, with the cost
  /// model's within-chunk overlap, seeded at `start_micros`.
  OverlappedScanTimeline Timeline(int64_t start_micros) const;

  /// Fetches chunk `chunk_id`: the next chunk of `stream` when non-null (a
  /// stream delivers its order in sequence, so it must be chunk_id), else
  /// through the cache's single-flight GetOrLoad when a cache is wired,
  /// else from the chunk file into `*buffer`.
  Status Fetch(uint32_t chunk_id, PrefetchStream* stream, ChunkData* buffer,
               FetchedChunk* out) const;

  /// Charges one read of `chunk_id` under `from_cache` to `t`: chunks_read,
  /// probes and max_probe_rows always; a cache verdict only when a cache is
  /// wired; bytes_read only for a chunk that came off the chunk file; and,
  /// with a cost model, the paper's serial charge into model_micros (CPU
  /// only for a cache hit). Returns the (io, cpu) pair for the overlapped
  /// timeline ({0, 0} without a cost model).
  ChunkCharge Charge(uint32_t chunk_id, bool from_cache,
                     QueryTelemetry* t) const;

  /// The read-ahead pipeline, or null at depth 0.
  const ChunkPrefetcher* prefetcher() const { return prefetcher_.get(); }

 private:
  const ChunkIndex* index_;
  ChunkCache* cache_;
  std::optional<DiskCostModel> cost_model_;
  /// Shared by all queries and threads; streams are per query or schedule.
  std::unique_ptr<ChunkPrefetcher> prefetcher_;
};

}  // namespace qvt

#endif  // QVT_CORE_CHUNK_READER_H_
