#include "layer_calls.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "geometry/kernels.h"

namespace perfbench {

namespace {

qvt::PrefetcherOptions NoPrefetch() {
  qvt::PrefetcherOptions options;
  options.depth = 0;
  return options;
}

}  // namespace

ChunkedRecomposer::ChunkedRecomposer(const qvt::ChunkIndex* index,
                                     qvt::ChunkCache* cache)
    : index_(index),
      cache_(cache),
      planner_(index, qvt::DiskCostModel(), nullptr, NoPrefetch()) {}

qvt::Status ChunkedRecomposer::Query(std::span<const float> query, size_t k,
                                     const qvt::StopRule& stop,
                                     Tracer& tracer,
                                     std::vector<qvt::Neighbor>* out,
                                     LayerCounts* counts) {
  SpanScope root(tracer, "query");
  {
    SpanScope plan(tracer, "plan");
    planner_.RankChunks(query, scratch_);
  }
  const size_t num_chunks = index_->num_chunks();
  qvt::KnnResultSet result(k);
  size_t read = 0;
  for (size_t r = 0; r < num_chunks; ++r) {
    if (stop.kind == qvt::StopRule::Kind::kMaxChunks &&
        read >= stop.max_chunks) {
      break;
    }
    if (stop.kind == qvt::StopRule::Kind::kExact && result.full() &&
        scratch_.suffix_min_bound[r] * (1.0 + stop.epsilon) >
            result.KthDistance()) {
      break;
    }
    const uint32_t chunk_id = scratch_.rank_order[r];
    std::shared_ptr<const qvt::ChunkData> ref;
    const qvt::ChunkData* data = nullptr;
    {
      SpanScope fetch(tracer, "fetch");
      if (cache_ != nullptr) {
        bool hit = false;
        QVT_RETURN_IF_ERROR(cache_->GetOrLoad(
            chunk_id, index_->location(chunk_id).num_pages,
            [&](qvt::ChunkData* o) { return index_->ReadChunk(chunk_id, o); },
            &ref, &hit));
        data = ref.get();
      } else {
        QVT_RETURN_IF_ERROR(index_->ReadChunk(chunk_id, &chunk_));
        data = &chunk_;
      }
    }
    {
      SpanScope scan(tracer, "scan");
      distances_.resize(data->size());
      qvt::kernels::BatchSquaredDistance(data->values.data(), data->size(),
                                         data->dim, query, distances_.data());
      for (size_t i = 0; i < data->size(); ++i) {
        result.Insert(data->ids[i], std::sqrt(distances_[i]));
      }
    }
    ++read;
    counts->rows_scanned += data->size();
  }
  counts->chunks += read;
  *out = result.Sorted();
  return qvt::Status::OK();
}

PqRecomposer::PqRecomposer(const qvt::ChunkIndex* index,
                           qvt::ChunkCache* cache, Codes codes,
                           std::vector<uint32_t> chunk_of_row, size_t rerank)
    : index_(index),
      cache_(cache),
      codes_(codes),
      chunk_of_row_(std::move(chunk_of_row)),
      rerank_(rerank) {}

qvt::Status PqRecomposer::Fetch(uint32_t chunk_id,
                                std::shared_ptr<const qvt::ChunkData>* ref,
                                const qvt::ChunkData** data) {
  if (cache_ == nullptr) {
    QVT_RETURN_IF_ERROR(index_->ReadChunk(chunk_id, &chunk_));
    *data = &chunk_;
    return qvt::Status::OK();
  }
  bool hit = false;
  QVT_RETURN_IF_ERROR(cache_->GetOrLoad(
      chunk_id, index_->location(chunk_id).num_pages,
      [&](qvt::ChunkData* o) { return index_->ReadChunk(chunk_id, o); }, ref,
      &hit));
  *data = ref->get();
  return qvt::Status::OK();
}

qvt::Status PqRecomposer::Query(std::span<const float> query, size_t k,
                                Tracer& tracer,
                                std::vector<qvt::Neighbor>* out,
                                LayerCounts* counts) {
  SpanScope root(tracer, "query");
  const size_t depth = std::min(std::max(rerank_, k), codes_.rows);
  std::vector<qvt::Neighbor> candidates;
  {
    SpanScope adc(tracer, "adc");
    const size_t sub_dim = query.size() / codes_.m;
    table_.resize(codes_.m * codes_.ksub);
    qvt::kernels::BuildAdcTable(codes_.codebooks.data(), codes_.m,
                                codes_.ksub, sub_dim, query, table_.data());
    adc_.resize(codes_.rows);
    qvt::kernels::AdcScan(codes_.codes.data(), codes_.rows, codes_.m,
                          codes_.ksub, table_.data(), adc_.data());
    qvt::KnnResultSet filter(depth);
    for (size_t r = 0; r < codes_.rows; ++r) {
      filter.Insert(static_cast<qvt::DescriptorId>(r), adc_[r]);
    }
    candidates = filter.Sorted();
  }
  counts->adc_rows += codes_.rows;

  SpanScope rerank(tracer, "rerank");
  std::map<uint32_t, std::vector<uint32_t>> wanted;  // chunk -> rows
  for (const qvt::Neighbor& c : candidates) {
    wanted[chunk_of_row_[c.id]].push_back(c.id);
  }
  qvt::KnnResultSet result(k);
  for (auto& [chunk_id, rows] : wanted) {
    std::sort(rows.begin(), rows.end());
    std::shared_ptr<const qvt::ChunkData> ref;
    const qvt::ChunkData* data = nullptr;
    {
      SpanScope fetch(tracer, "fetch");
      QVT_RETURN_IF_ERROR(Fetch(chunk_id, &ref, &data));
    }
    SpanScope scan(tracer, "scan");
    for (size_t i = 0; i < data->size(); ++i) {
      if (!std::binary_search(rows.begin(), rows.end(), data->ids[i])) {
        continue;
      }
      double sq = 0.0;
      qvt::kernels::BatchSquaredDistance(data->values.data() + i * data->dim,
                                         1, data->dim, query, &sq);
      result.Insert(data->ids[i], std::sqrt(sq));
      ++counts->rows_scanned;
    }
    ++counts->chunks;
  }
  *out = result.Sorted();
  return qvt::Status::OK();
}

}  // namespace perfbench
