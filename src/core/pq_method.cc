#include "core/pq_method.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "descriptor/types.h"
#include "geometry/kernels.h"
#include "geometry/vec.h"
#include "util/build_stats.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace qvt {
namespace {

/// ADC rows per AdcScanAbandon call — the same block size as the chunked
/// searcher's scan loop, so the pruning threshold tightens between blocks.
constexpr size_t kScanBlock = 256;

void SortByDistanceThenId(std::vector<Neighbor>* neighbors) {
  std::sort(neighbors->begin(), neighbors->end(),
            [](const Neighbor& a, const Neighbor& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.id < b.id;
            });
}

/// Binary search in a (key, value) vector sorted by key.
const uint32_t* LookupSorted(
    const std::vector<std::pair<uint32_t, uint32_t>>& table, uint32_t key) {
  const auto it = std::lower_bound(
      table.begin(), table.end(), key,
      [](const std::pair<uint32_t, uint32_t>& e, uint32_t k) {
        return e.first < k;
      });
  if (it == table.end() || it->first != key) return nullptr;
  return &it->second;
}

}  // namespace

PqMethod::PqMethod(const MethodContext& context, PqMethodConfig config)
    : collection_(context.collection),
      index_(context.index),
      cache_(context.cache),
      prefetch_options_(context.prefetch),
      env_(context.env),
      config_(std::move(config)) {}

std::string PqMethod::Describe() const {
  std::ostringstream out;
  out << "pq compressed first pass: m=" << config_.m << " x ksub="
      << config_.ksub << " (" << config_.m << " bytes/code)";
  if (prepared_) out << ", " << num_rows_ << " rows";
  if (!config_.file.empty()) out << ", file " << config_.file;
  if (config_.rerank == 0) {
    out << ", no rerank (ADC estimates)";
  } else {
    out << ", rerank " << config_.rerank
        << (index_ != nullptr ? " via chunk file" : " via collection");
  }
  return out.str();
}

Status PqMethod::PrepareCompressed() {
  if (!config_.file.empty()) {
    if (env_ == nullptr) {
      return Status::InvalidArgument(
          "pq file= requires an Env in the context");
    }
    const size_t expected_dim = collection_ != nullptr ? collection_->dim()
                                : index_ != nullptr   ? index_->dim()
                                                      : 0;
    const bool mapped =
        ResolveIndexOpenMode(IndexOpenMode::kAuto) == IndexOpenMode::kMmap;
    BuildPhaseTimer timer(mapped ? "pq.open.mmap" : "pq.open.deserialize");
    QVT_ASSIGN_OR_RETURN(PqFileView view,
                         OpenPqFile(env_, config_.file, expected_dim, mapped));
    config_.m = view.m();
    config_.ksub = view.ksub();
    dim_ = view.dim();
    sub_dim_ = view.sub_dim();
    num_rows_ = view.num_vectors();
    file_view_ = std::move(view);
    codebooks_ = file_view_->codebooks();
    codes_ = file_view_->codes();
    ids_ = file_view_->ids();
    return Status::OK();
  }

  if (collection_ == nullptr) {
    return Status::InvalidArgument(
        "pq requires a collection in the context (or a file= parameter)");
  }
  PqConfig train_config{.m = config_.m,
                        .ksub = config_.ksub,
                        .max_iterations = config_.max_iterations,
                        .seed = config_.seed};
  // TrainPq / PqEncode charge the "pq.train" / "pq.encode" build phases
  // themselves.
  QVT_ASSIGN_OR_RETURN(trained_codebook_, TrainPq(*collection_, train_config));
  QVT_ASSIGN_OR_RETURN(trained_codes_,
                       PqEncode(*collection_, trained_codebook_));
  dim_ = trained_codebook_.dim;
  sub_dim_ = trained_codebook_.sub_dim();
  num_rows_ = collection_->size();
  codebooks_ = trained_codebook_.centroids;
  codes_ = trained_codes_;
  ids_ = collection_->Ids();
  return Status::OK();
}

Status PqMethod::PrepareRerankRouting() {
  if (config_.rerank == 0) return Status::OK();  // ADC-only: nothing to route
  if (index_ == nullptr && collection_ == nullptr) {
    return Status::InvalidArgument(
        "pq with rerank > 0 requires a chunk index or a collection in the "
        "context (pass rerank=0 for an ADC-only search)");
  }
  if (index_ != nullptr) {
    // One streaming pass over the chunk file: the id -> chunk table the
    // rerank uses to turn ADC survivors into a chunk read schedule.
    BuildPhaseTimer timer("pq.route");
    id_to_chunk_.reserve(num_rows_);
    ChunkData chunk;
    for (size_t i = 0; i < index_->num_chunks(); ++i) {
      QVT_RETURN_IF_ERROR(index_->ReadChunk(i, &chunk));
      for (const DescriptorId id : chunk.ids) {
        id_to_chunk_.emplace_back(id, static_cast<uint32_t>(i));
      }
    }
    std::sort(id_to_chunk_.begin(), id_to_chunk_.end());
  }
  if (file_view_.has_value() && collection_ != nullptr) {
    // File rows carry ids, not collection positions; the gather fallback
    // (outliers absent from the chunk file, or no index at all) needs the
    // id -> position table.
    id_to_position_.reserve(collection_->size());
    for (size_t pos = 0; pos < collection_->size(); ++pos) {
      id_to_position_.emplace_back(collection_->Id(pos),
                                   static_cast<uint32_t>(pos));
    }
    std::sort(id_to_position_.begin(), id_to_position_.end());
  }
  return Status::OK();
}

Status PqMethod::Prepare() {
  if (prepared_) return Status::OK();
  QVT_RETURN_IF_ERROR(PrepareCompressed());
  QVT_RETURN_IF_ERROR(PrepareRerankRouting());
  if (index_ != nullptr && config_.rerank > 0) {
    reader_.emplace(index_, cache_, prefetch_options_, std::nullopt);
  }
  prepared_ = true;
  return Status::OK();
}

size_t PqMethod::ResidentBytes() const {
  return codebooks_.size() * sizeof(float) + codes_.size() +
         ids_.size() * sizeof(uint32_t) +
         id_to_chunk_.size() * sizeof(id_to_chunk_[0]) +
         id_to_position_.size() * sizeof(id_to_position_[0]);
}

StatusOr<MethodResult> PqMethod::Search(std::span<const float> query, size_t k,
                                        const StopRule& stop) const {
  if (!prepared_) {
    return Status::FailedPrecondition("pq used before Prepare()");
  }
  QVT_RETURN_IF_ERROR(RequireExactStop(stop, name()));
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (query.size() != dim_) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }

  WallClock wall;
  Stopwatch total(&wall);
  MethodResult result;
  QueryTelemetry& t = result.telemetry;

  // Plan: the per-query ADC table — one batched kernel sweep per subspace.
  static thread_local std::vector<double> table;
  {
    Stopwatch phase(&wall);
    table.resize(config_.m * config_.ksub);
    kernels::BuildAdcTable(codebooks_.data(), config_.m, config_.ksub,
                           sub_dim_, query, table.data());
    t.plan.wall_micros = phase.ElapsedMicros();
  }

  // Scan: early-abandoning ADC over the packed codes, block by block so the
  // threshold tightens as the filter fills. The filter keeps the best
  // max(R, k) rows by (ADC distance, row) — row order, not id order, since
  // ADC values are bit-identical across backends this stays deterministic.
  const size_t depth = std::min(std::max(config_.rerank, k), num_rows_);
  KnnResultSet filter(depth);
  {
    Stopwatch phase(&wall);
    static thread_local std::vector<double> adc;
    adc.resize(kScanBlock);
    for (size_t start = 0; start < num_rows_; start += kScanBlock) {
      const size_t count = std::min(kScanBlock, num_rows_ - start);
      // ADC table entries are non-negative, so running > KthDistance()
      // proves the row cannot enter the filter — exactly safe, no margin.
      kernels::AdcScanAbandon(codes_.data() + start * config_.m, count,
                              config_.m, config_.ksub, table.data(),
                              filter.KthDistance(), adc.data());
      for (size_t i = 0; i < count; ++i) {
        if (adc[i] == kernels::kAbandoned) continue;
        filter.Insert(static_cast<DescriptorId>(start + i), adc[i]);
      }
    }
    t.scan.wall_micros = phase.ElapsedMicros();
  }
  t.index_entries_scanned = num_rows_;

  // Refine: exact distances for the survivors, visited in ADC-score order.
  {
    Stopwatch phase(&wall);
    const std::vector<Neighbor> candidates = filter.Sorted();
    t.candidates_examined = candidates.size();
    if (config_.rerank == 0) {
      // Trust the ADC estimates: map rows back to ids, re-sort (rows and
      // ids order ties differently), report sqrt(ADC) distances.
      result.neighbors.reserve(candidates.size());
      for (const Neighbor& c : candidates) {
        result.neighbors.push_back({ids_[c.id], std::sqrt(c.distance)});
      }
      SortByDistanceThenId(&result.neighbors);
      t.bytes_read += candidates.size() * config_.m;
    } else {
      KnnResultSet exact(k);
      if (index_ != nullptr) {
        QVT_RETURN_IF_ERROR(RerankFromChunks(query, candidates, &exact, &t));
      } else {
        QVT_RETURN_IF_ERROR(
            RerankFromCollection(query, candidates, &exact, &t));
      }
      result.neighbors = exact.Sorted();
    }
    t.refine.wall_micros = phase.ElapsedMicros();
  }

  t.wall_micros = total.ElapsedMicros();
  return result;
}

StatusOr<std::vector<MethodResult>> PqMethod::SearchShared(
    std::span<const std::span<const float>> queries, size_t k,
    const StopRule& stop, size_t num_threads,
    SharedScanStats* stats) const {
  if (!prepared_) {
    return Status::FailedPrecondition("pq used before Prepare()");
  }
  QVT_RETURN_IF_ERROR(RequireExactStop(stop, name()));
  if (k == 0) return Status::InvalidArgument("k must be positive");
  for (const auto& query : queries) {
    if (query.size() != dim_) {
      return Status::InvalidArgument("query dimensionality mismatch");
    }
  }
  const size_t nq = queries.size();
  WallClock wall;

  // Private state of one query in the fused scan; nothing is shared
  // between queries except the read-only codes and chunk fetches.
  struct PqQueryState {
    std::vector<double> table;
    std::vector<double> adc;  ///< kScanBlock kernel-output scratch
    std::optional<KnnResultSet> filter;
    MethodResult result;
    int64_t wall_micros = 0;  ///< fair-share attribution
  };
  std::vector<PqQueryState> states(nq);
  const size_t depth = std::min(std::max(config_.rerank, k), num_rows_);

  // Plan: per-query ADC tables (independent work, measured per query).
  for (size_t i = 0; i < nq; ++i) {
    PqQueryState& q = states[i];
    Stopwatch phase(&wall);
    q.table.resize(config_.m * config_.ksub);
    kernels::BuildAdcTable(codebooks_.data(), config_.m, config_.ksub,
                           sub_dim_, queries[i], q.table.data());
    q.filter.emplace(depth);
    q.adc.resize(kScanBlock);
    q.result.telemetry.plan.wall_micros = phase.ElapsedMicros();
    q.wall_micros = q.result.telemetry.plan.wall_micros;
  }
  if (stats != nullptr) {
    stats->enabled = true;
    stats->queries += nq;
  }

  // Scan: one fused pass over the packed codes for all queries — each code
  // block is decoded from memory once and swept for every query, with
  // per-query thresholds recomputed from each query's own filter between
  // blocks, exactly the per-query block sequence of Search().
  {
    Stopwatch phase(&wall);
    auto scan_range = [&](size_t qbegin, size_t qend) {
      const size_t n = qend - qbegin;
      std::vector<const double*> tables(n);
      std::vector<double*> outs(n);
      std::vector<double> thresholds(n);
      for (size_t j = 0; j < n; ++j) {
        tables[j] = states[qbegin + j].table.data();
        outs[j] = states[qbegin + j].adc.data();
      }
      for (size_t start = 0; start < num_rows_; start += kScanBlock) {
        const size_t count = std::min(kScanBlock, num_rows_ - start);
        for (size_t j = 0; j < n; ++j) {
          thresholds[j] = states[qbegin + j].filter->KthDistance();
        }
        kernels::MultiQueryAdcScanAbandon(
            codes_.data() + start * config_.m, count, config_.m, config_.ksub,
            tables.data(), thresholds.data(), n, outs.data());
        for (size_t j = 0; j < n; ++j) {
          KnnResultSet& filter = *states[qbegin + j].filter;
          const double* adc = outs[j];
          for (size_t i = 0; i < count; ++i) {
            if (adc[i] == kernels::kAbandoned) continue;
            filter.Insert(static_cast<DescriptorId>(start + i), adc[i]);
          }
        }
      }
    };
    if (num_threads > 1 && nq > 1) {
      // Contiguous query ranges, disjoint per-query state: results do not
      // depend on the thread count or task completion order.
      ThreadPool pool(num_threads);
      const size_t tasks = std::min(pool.num_threads(), nq);
      for (size_t t = 0; t < tasks; ++t) {
        const size_t begin = nq * t / tasks;
        const size_t end = nq * (t + 1) / tasks;
        pool.Submit([&scan_range, begin, end] { scan_range(begin, end); });
      }
      pool.Wait();
    } else {
      scan_range(0, nq);
    }
    const int64_t share =
        nq > 0 ? phase.ElapsedMicros() / static_cast<int64_t>(nq) : 0;
    for (PqQueryState& q : states) {
      q.result.telemetry.scan.wall_micros = share;
      q.wall_micros += share;
      q.result.telemetry.index_entries_scanned = num_rows_;
    }
    if (stats != nullptr && nq > 0) {
      stats->rows_scan_shared +=
          static_cast<uint64_t>(num_rows_) * (nq - 1);
      ++stats->coscan_histogram[SharedScanStats::HistogramBucket(nq)];
    }
  }

  // Refine: exact rerank. With a chunk index the queries' candidate chunks
  // are merged into one schedule — each distinct chunk fetched and decoded
  // once — while every query keeps its own exact result set and as-if-alone
  // counters. Without an index (or with rerank=0) refinement is per-query
  // memory work with nothing to coalesce.
  if (config_.rerank > 0 && index_ != nullptr) {
    struct QueryDemand {
      size_t query_index;
      std::vector<uint32_t> wanted;  ///< sorted ids this query refines here
    };
    std::map<uint32_t, std::vector<QueryDemand>> demands;  // ascending chunk
    std::vector<std::vector<Neighbor>> missing(nq);
    std::vector<std::optional<KnnResultSet>> exact(nq);
    for (size_t i = 0; i < nq; ++i) {
      PqQueryState& q = states[i];
      Stopwatch phase(&wall);
      exact[i].emplace(k);
      const std::vector<Neighbor> candidates = q.filter->Sorted();
      q.result.telemetry.candidates_examined = candidates.size();
      std::unordered_map<uint32_t, size_t> slot;
      std::vector<std::pair<uint32_t, std::vector<uint32_t>>> per_chunk;
      for (const Neighbor& c : candidates) {
        const uint32_t id = ids_[c.id];
        const uint32_t* chunk_id = LookupSorted(id_to_chunk_, id);
        if (chunk_id == nullptr) {
          missing[i].push_back(c);
          continue;
        }
        const auto [it, inserted] = slot.try_emplace(*chunk_id,
                                                     per_chunk.size());
        if (inserted) per_chunk.emplace_back(*chunk_id, std::vector<uint32_t>());
        per_chunk[it->second].second.push_back(id);
      }
      for (auto& [chunk_id, want] : per_chunk) {
        std::sort(want.begin(), want.end());
        demands[chunk_id].push_back({i, std::move(want)});
      }
      const int64_t planned = phase.ElapsedMicros();
      q.result.telemetry.refine.wall_micros += planned;
      q.wall_micros += planned;
    }

    std::vector<uint32_t> chunk_order;
    chunk_order.reserve(demands.size());
    for (const auto& [chunk_id, atts] : demands) {
      chunk_order.push_back(chunk_id);
    }
    const std::unique_ptr<PrefetchStream> stream =
        reader_->OpenStream(chunk_order);
    ChunkData local;
    Status status = Status::OK();
    for (const uint32_t chunk_id : chunk_order) {
      Stopwatch chunk_watch(&wall);
      FetchedChunk fetched;
      status = reader_->Fetch(chunk_id, stream.get(), &local, &fetched);
      if (!status.ok()) break;
      const ChunkData* chunk = fetched.data;

      const std::vector<QueryDemand>& atts = demands[chunk_id];
      for (const QueryDemand& att : atts) {
        QueryTelemetry& t = states[att.query_index].result.telemetry;
        // Fetched once, charged to every attached query under the shared
        // fetch's cache verdict.
        reader_->Charge(chunk_id, fetched.from_cache, &t);
        KnnResultSet& result_set = *exact[att.query_index];
        size_t found = 0;
        for (size_t j = 0; j < chunk->size() && found < att.wanted.size();
             ++j) {
          if (!std::binary_search(att.wanted.begin(), att.wanted.end(),
                                  chunk->ids[j])) {
            continue;
          }
          const double d = std::sqrt(
              vec::SquaredDistance(chunk->Vector(j), queries[att.query_index]));
          result_set.Insert(chunk->ids[j], d);
          ++found;
          ++t.descriptors_scanned;
        }
      }
      const int64_t wall_share =
          chunk_watch.ElapsedMicros() / static_cast<int64_t>(atts.size());
      for (const QueryDemand& att : atts) {
        states[att.query_index].result.telemetry.refine.wall_micros +=
            wall_share;
        states[att.query_index].wall_micros += wall_share;
      }
      if (stats != nullptr) {
        ++stats->chunk_fetches;
        stats->chunk_attachments += atts.size();
        stats->rows_fetched += chunk->size();
        ++stats->coscan_histogram[SharedScanStats::HistogramBucket(
            atts.size())];
      }
    }
    if (stream != nullptr) {
      const PrefetchStats prefetch = stream->Finish();
      if (stats != nullptr) stats->prefetch += prefetch;
    }
    QVT_RETURN_IF_ERROR(status);

    for (size_t i = 0; i < nq; ++i) {
      PqQueryState& q = states[i];
      Stopwatch phase(&wall);
      if (!missing[i].empty()) {
        QVT_RETURN_IF_ERROR(RerankFromCollection(
            queries[i], missing[i], &*exact[i], &q.result.telemetry));
      }
      q.result.neighbors = exact[i]->Sorted();
      const int64_t tail = phase.ElapsedMicros();
      q.result.telemetry.refine.wall_micros += tail;
      q.wall_micros += tail;
    }
  } else {
    for (size_t i = 0; i < nq; ++i) {
      PqQueryState& q = states[i];
      Stopwatch phase(&wall);
      const std::vector<Neighbor> candidates = q.filter->Sorted();
      QueryTelemetry& t = q.result.telemetry;
      t.candidates_examined = candidates.size();
      if (config_.rerank == 0) {
        q.result.neighbors.reserve(candidates.size());
        for (const Neighbor& c : candidates) {
          q.result.neighbors.push_back({ids_[c.id], std::sqrt(c.distance)});
        }
        SortByDistanceThenId(&q.result.neighbors);
        t.bytes_read += candidates.size() * config_.m;
      } else {
        KnnResultSet result_set(k);
        QVT_RETURN_IF_ERROR(
            RerankFromCollection(queries[i], candidates, &result_set, &t));
        q.result.neighbors = result_set.Sorted();
      }
      t.refine.wall_micros = phase.ElapsedMicros();
      q.wall_micros += t.refine.wall_micros;
    }
  }

  std::vector<MethodResult> results;
  results.reserve(nq);
  for (PqQueryState& q : states) {
    q.result.telemetry.wall_micros = q.wall_micros;
    results.push_back(std::move(q.result));
  }
  return results;
}

Status PqMethod::RerankFromChunks(std::span<const float> query,
                                  std::span<const Neighbor> candidates,
                                  KnnResultSet* result_set,
                                  QueryTelemetry* telemetry) const {
  // Group candidate ids by chunk, chunks ordered by the best-scoring
  // candidate they hold (first appearance in the ascending-ADC list) — the
  // read schedule the prefetcher runs ahead of. Ids absent from the chunk
  // file (outliers are never written) fall back to the collection.
  std::vector<uint32_t> chunk_order;
  std::vector<std::vector<uint32_t>> wanted;
  std::unordered_map<uint32_t, size_t> chunk_slot;
  std::vector<Neighbor> missing;
  for (const Neighbor& c : candidates) {
    const uint32_t id = ids_[c.id];
    const uint32_t* chunk_id = LookupSorted(id_to_chunk_, id);
    if (chunk_id == nullptr) {
      missing.push_back(c);
      continue;
    }
    const auto [it, inserted] =
        chunk_slot.try_emplace(*chunk_id, chunk_order.size());
    if (inserted) {
      chunk_order.push_back(*chunk_id);
      wanted.emplace_back();
    }
    wanted[it->second].push_back(id);
  }
  for (std::vector<uint32_t>& w : wanted) std::sort(w.begin(), w.end());

  const std::unique_ptr<PrefetchStream> stream =
      reader_->OpenStream(chunk_order);
  ChunkData local;
  for (size_t ci = 0; ci < chunk_order.size(); ++ci) {
    const uint32_t chunk_id = chunk_order[ci];
    FetchedChunk fetched;
    QVT_RETURN_IF_ERROR(
        reader_->Fetch(chunk_id, stream.get(), &local, &fetched));
    const ChunkData* chunk = fetched.data;
    reader_->Charge(chunk_id, fetched.from_cache, telemetry);

    const std::vector<uint32_t>& want = wanted[ci];
    size_t found = 0;
    for (size_t j = 0; j < chunk->size() && found < want.size(); ++j) {
      if (!std::binary_search(want.begin(), want.end(), chunk->ids[j])) {
        continue;
      }
      const double d = std::sqrt(vec::SquaredDistance(chunk->Vector(j), query));
      result_set->Insert(chunk->ids[j], d);
      ++found;
      ++telemetry->descriptors_scanned;
    }
  }
  if (stream != nullptr) telemetry->prefetch += stream->Finish();

  if (!missing.empty()) {
    QVT_RETURN_IF_ERROR(
        RerankFromCollection(query, missing, result_set, telemetry));
  }
  return Status::OK();
}

Status PqMethod::RerankFromCollection(std::span<const float> query,
                                      std::span<const Neighbor> candidates,
                                      KnnResultSet* result_set,
                                      QueryTelemetry* telemetry) const {
  if (collection_ == nullptr) {
    return Status::FailedPrecondition(
        "pq rerank needs a chunk index or an in-memory collection");
  }
  static thread_local std::vector<uint32_t> positions;
  positions.clear();
  positions.reserve(candidates.size());
  for (const Neighbor& c : candidates) {
    if (!file_view_.has_value()) {
      // Trained in-process: code row i is collection position i.
      positions.push_back(static_cast<uint32_t>(c.id));
      continue;
    }
    const uint32_t id = ids_[c.id];
    const uint32_t* pos = LookupSorted(id_to_position_, id);
    if (pos == nullptr) {
      return Status::InvalidArgument(
          "pq file row id " + std::to_string(id) +
          " is absent from the context collection; rerank impossible");
    }
    positions.push_back(*pos);
  }

  static thread_local std::vector<double> wide_query;
  static thread_local std::vector<double> distances;
  wide_query.assign(query.begin(), query.end());
  distances.resize(positions.size());
  kernels::GatherSquaredDistance(collection_->RawData().data(), dim_,
                                 positions, wide_query, distances.data());
  for (size_t i = 0; i < positions.size(); ++i) {
    result_set->Insert(collection_->Id(positions[i]),
                       std::sqrt(distances[i]));
  }
  telemetry->descriptors_scanned += positions.size();
  telemetry->bytes_read += positions.size() * DescriptorRecordBytes(dim_);
  return Status::OK();
}

void RegisterPqMethod(MethodRegistry& registry) {
  QVT_CHECK_OK(registry.Register(
      {"pq",
       "product-quantization compressed first pass: SIMD ADC scan over "
       "packed in-memory codes, exact rerank of the top R through the "
       "chunk file",
       {/*exact=*/false, /*range_search=*/false, /*stop_rules=*/false,
        /*disk_model=*/false}},
      [](const MethodContext& context, MethodOptions& options)
          -> StatusOr<std::unique_ptr<SearchMethod>> {
        PqMethodConfig config;
        QVT_ASSIGN_OR_RETURN(config.m, options.GetSize("m", config.m));
        QVT_ASSIGN_OR_RETURN(config.ksub,
                             options.GetSize("ksub", config.ksub));
        QVT_ASSIGN_OR_RETURN(config.rerank,
                             options.GetSize("rerank", config.rerank));
        QVT_ASSIGN_OR_RETURN(
            config.max_iterations,
            options.GetSize("iters", config.max_iterations));
        QVT_ASSIGN_OR_RETURN(config.seed,
                             options.GetUint64("seed", config.seed));
        QVT_ASSIGN_OR_RETURN(config.file,
                             options.GetString("file", config.file));
        if (config.m == 0) {
          return Status::InvalidArgument("pq requires m >= 1");
        }
        if (config.ksub < 1 || config.ksub > 256) {
          return Status::InvalidArgument("pq requires ksub in [1, 256]");
        }
        if (config.file.empty() && context.collection == nullptr) {
          return Status::InvalidArgument(
              "pq requires a collection in the context (or a file= "
              "parameter)");
        }
        if (!config.file.empty() && context.env == nullptr) {
          return Status::InvalidArgument(
              "pq file= requires an Env in the context");
        }
        return std::unique_ptr<SearchMethod>(
            new PqMethod(context, std::move(config)));
      }));
}

}  // namespace qvt
