#ifndef QVT_PERFBENCH_LAYER_CALLS_H_
#define QVT_PERFBENCH_LAYER_CALLS_H_

// The benchmark's only calls into internal-facing functions of the
// program: chunk ranking, chunk reads, the cache's read-through lookup and
// the scan / ADC kernels. The traced run re-composes a query from these
// calls with a span around each, so a later change to one of their
// signatures touches this file alone.

#include <cstdint>
#include <span>
#include <vector>

#include "core/chunk_index.h"
#include "core/result_set.h"
#include "core/searcher.h"
#include "storage/chunk_cache.h"
#include "trace.h"
#include "util/status.h"

namespace perfbench {

/// Work counters of one re-composed query.
struct LayerCounts {
  uint64_t chunks = 0;
  uint64_t rows_scanned = 0;
  uint64_t adc_rows = 0;
};

/// Re-composes a `chunked` query: RankChunks into a SearchScratch, then
/// for each ranked chunk a read (through `cache` when non-null, else
/// ChunkIndex::ReadChunk) and a scan-kernel pass into a KnnResultSet, under
/// the exact or the max-chunks stop rule.
class ChunkedRecomposer {
 public:
  ChunkedRecomposer(const qvt::ChunkIndex* index, qvt::ChunkCache* cache);

  qvt::Status Query(std::span<const float> query, size_t k,
                    const qvt::StopRule& stop, Tracer& tracer,
                    std::vector<qvt::Neighbor>* out, LayerCounts* counts);

 private:
  const qvt::ChunkIndex* index_;
  qvt::ChunkCache* cache_;
  qvt::Searcher planner_;  ///< prefetch off; used only for RankChunks
  qvt::SearchScratch scratch_;
  qvt::ChunkData chunk_;
  std::vector<double> distances_;
};

/// Re-composes a `pq` query with exact chunk-file rerank: BuildAdcTable and
/// AdcScan over every packed code, the best max(rerank, k) rows by
/// (ADC, row), then each candidate's chunk through the cache and an exact
/// distance for each candidate row.
class PqRecomposer {
 public:
  struct Codes {
    std::span<const float> codebooks;
    std::span<const uint8_t> codes;
    size_t m = 0;
    size_t ksub = 0;
    size_t rows = 0;
  };
  /// `chunk_of_row[r]` is the chunk holding row r (row == descriptor id).
  PqRecomposer(const qvt::ChunkIndex* index, qvt::ChunkCache* cache,
               Codes codes, std::vector<uint32_t> chunk_of_row,
               size_t rerank);

  qvt::Status Query(std::span<const float> query, size_t k, Tracer& tracer,
                    std::vector<qvt::Neighbor>* out, LayerCounts* counts);

 private:
  qvt::Status Fetch(uint32_t chunk_id,
                    std::shared_ptr<const qvt::ChunkData>* ref,
                    const qvt::ChunkData** data);

  const qvt::ChunkIndex* index_;
  qvt::ChunkCache* cache_;
  Codes codes_;
  std::vector<uint32_t> chunk_of_row_;
  size_t rerank_;
  std::vector<double> table_;
  std::vector<double> adc_;
  qvt::ChunkData chunk_;
};

}  // namespace perfbench

#endif  // QVT_PERFBENCH_LAYER_CALLS_H_
