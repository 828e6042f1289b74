#include "core/chunk_reader.h"

#include <algorithm>

#include "storage/page.h"

namespace qvt {

ChunkReader::ChunkReader(const ChunkIndex* index, ChunkCache* cache,
                         PrefetcherOptions prefetch,
                         std::optional<DiskCostModel> cost_model)
    : index_(index), cache_(cache), cost_model_(cost_model) {
  if (prefetch.depth >= 1) {
    prefetcher_ = std::make_unique<ChunkPrefetcher>(
        [index](uint32_t chunk_id, ChunkData* out) {
          return index->ReadChunk(chunk_id, out);
        },
        [index](uint32_t chunk_id) {
          return index->location(chunk_id).num_pages;
        },
        cache, prefetch);
  }
}

std::unique_ptr<PrefetchStream> ChunkReader::OpenStream(
    std::span<const uint32_t> order) const {
  if (prefetcher_ == nullptr) return nullptr;
  return prefetcher_->NewStream(order);
}

OverlappedScanTimeline ChunkReader::Timeline(int64_t start_micros) const {
  return OverlappedScanTimeline(
      prefetcher_ != nullptr ? prefetcher_->depth() : 0, start_micros,
      !cost_model_.has_value() || cost_model_->config().overlap_io_cpu);
}

Status ChunkReader::Fetch(uint32_t chunk_id, PrefetchStream* stream,
                          ChunkData* buffer, FetchedChunk* out) const {
  out->from_cache = false;
  if (stream != nullptr) {
    // The stream's consume-time cache verdicts match the synchronous path
    // below exactly, so the pipeline changes only when bytes arrive.
    return stream->Next(&out->cache_ref, &out->data, &out->from_cache);
  }
  if (cache_ != nullptr) {
    // Single-flight read-through: concurrent misses on one chunk coalesce
    // into one disk read, and the scan reads straight out of the returned
    // handle — no post-scan Put, no copy.
    QVT_RETURN_IF_ERROR(cache_->GetOrLoad(
        chunk_id, index_->location(chunk_id).num_pages,
        [&](ChunkData* load) { return index_->ReadChunk(chunk_id, load); },
        &out->cache_ref, &out->from_cache));
    out->data = out->cache_ref.get();
    return Status::OK();
  }
  QVT_RETURN_IF_ERROR(index_->ReadChunk(chunk_id, buffer));
  out->data = buffer;
  return Status::OK();
}

ChunkCharge ChunkReader::Charge(uint32_t chunk_id, bool from_cache,
                                QueryTelemetry* t) const {
  const ChunkLocation& loc = index_->location(chunk_id);
  ++t->chunks_read;
  ++t->probes;
  t->max_probe_rows =
      std::max<uint64_t>(t->max_probe_rows, loc.num_descriptors);
  if (cache_ != nullptr) from_cache ? ++t->cache_hits : ++t->cache_misses;
  if (!from_cache) {
    t->bytes_read += static_cast<uint64_t>(loc.num_pages) * kPageSize;
  }
  if (!cost_model_.has_value()) return {};
  // A resident chunk skips the disk entirely: CPU cost only.
  const ChunkCharge charge{
      from_cache ? 0 : cost_model_->ChunkIoMicros(loc.num_pages),
      cost_model_->ChunkCpuMicros(loc.num_descriptors)};
  t->model_micros += from_cache ? charge.cpu_micros
                                : cost_model_->CombineMicros(
                                      charge.io_micros, charge.cpu_micros);
  return charge;
}

}  // namespace qvt
