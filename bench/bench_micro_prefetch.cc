// Microbench: wall time of the chunk-prefetch pipeline vs read-ahead depth.
//
// The paper-reproduction benches charge I/O on the modeled 2005 disk, so the
// pipeline's *win* — overlapping real reads with the kernel scan — only
// shows on the wall clock. /tmp is RAM-backed here, which would hide it, so
// this bench injects a fixed per-read latency through an Env decorator
// (DelayEnv) to stand in for a disk's positioning time, then measures mean
// wall time per query at depth 0 (synchronous), 1, 2, 4, and 8, over a cold
// pass (no cache: every chunk is a real read) and a warm pass (pre-warmed
// cache: the pipeline should be a no-op). Results are bit-identical at every
// depth — checked here too — so the table is purely a latency story.

#include <chrono>
#include <cstring>
#include <iostream>
#include <thread>
#include <vector>

#include "cluster/srtree_chunker.h"
#include "core/searcher.h"
#include "descriptor/generator.h"
#include "storage/chunk_cache.h"
#include "util/clock.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/table.h"

namespace qvt {
namespace {

/// Positional-read handle that sleeps before delegating, emulating a disk's
/// per-read positioning latency on a RAM-backed target.
class DelayFile final : public RandomAccessFile {
 public:
  DelayFile(std::unique_ptr<RandomAccessFile> target, int64_t delay_micros)
      : target_(std::move(target)), delay_micros_(delay_micros) {}

  Status Read(uint64_t offset, size_t size, void* scratch) const override {
    std::this_thread::sleep_for(std::chrono::microseconds(delay_micros_));
    return target_->Read(offset, size, scratch);
  }
  uint64_t Size() const override { return target_->Size(); }

 private:
  std::unique_ptr<RandomAccessFile> target_;
  const int64_t delay_micros_;
};

/// Env decorator injecting per-read latency; writes pass straight through
/// (only the search path is being measured).
class DelayEnv final : public Env {
 public:
  DelayEnv(Env* target, int64_t delay_micros)
      : target_(target), delay_micros_(delay_micros) {}

  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    return target_->NewWritableFile(path);
  }
  StatusOr<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    auto file = target_->NewRandomAccessFile(path);
    QVT_RETURN_IF_ERROR(file.status());
    return StatusOr<std::unique_ptr<RandomAccessFile>>(
        std::make_unique<DelayFile>(std::move(file).value(), delay_micros_));
  }
  bool FileExists(const std::string& path) override {
    return target_->FileExists(path);
  }
  Status DeleteFile(const std::string& path) override {
    return target_->DeleteFile(path);
  }
  StatusOr<uint64_t> GetFileSize(const std::string& path) override {
    return target_->GetFileSize(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return target_->RenameFile(from, to);
  }

 private:
  Env* target_;
  const int64_t delay_micros_;
};

PrefetcherOptions Depth(size_t depth) {
  PrefetcherOptions options;
  options.depth = depth;
  return options;
}

struct PassResult {
  double mean_wall_micros = 0.0;
  uint64_t fingerprint = 0;  // neighbors + chunks_read, for identity check
};

PassResult RunPass(const Searcher& searcher, const Collection& collection,
                   const std::vector<size_t>& query_positions, size_t k) {
  PassResult pass;
  SearchScratch scratch;
  WallClock wall;
  Stopwatch stopwatch(&wall);
  for (size_t pos : query_positions) {
    auto result = searcher.Search(collection.Vector(pos), k,
                                  StopRule::Exact(), nullptr, &scratch);
    QVT_CHECK_OK(result.status());
    pass.fingerprint =
        pass.fingerprint * 1000003 + result->telemetry.chunks_read;
    for (const Neighbor& n : result->neighbors) {
      pass.fingerprint = pass.fingerprint * 1000003 + n.id;
    }
  }
  pass.mean_wall_micros = static_cast<double>(stopwatch.ElapsedMicros()) /
                          static_cast<double>(query_positions.size());
  return pass;
}

void Run(int64_t delay_micros) {
  // Self-contained fixture: a small synthetic collection indexed in memory,
  // with every chunk read paying `delay_micros` of injected latency.
  GeneratorConfig generator;
  generator.num_images = 150;
  generator.descriptors_per_image = 40;
  generator.num_modes = 16;
  generator.seed = 7;
  const Collection collection = GenerateCollection(generator);

  MemEnv mem;
  DelayEnv env(&mem, delay_micros);
  SrTreeChunker chunker(250);
  auto chunking = chunker.FormChunks(collection);
  QVT_CHECK_OK(chunking.status());
  auto index = ChunkIndex::Build(collection, *chunking, &env,
                                 ChunkIndexPaths::ForBase("bench_prefetch"));
  QVT_CHECK_OK(index.status());

  std::vector<size_t> query_positions;
  for (size_t q = 0; q < 24; ++q) {
    query_positions.push_back((q * 211) % collection.size());
  }
  const size_t k = 10;

  std::cout << "### Micro: prefetch pipeline wall time vs depth\n"
            << "collection: " << collection.size() << " descriptors in "
            << index->num_chunks() << " chunks; " << query_positions.size()
            << " exact queries; injected read latency " << delay_micros
            << " us/chunk\n";

  TablePrinter table({"depth", "cold wall/query (ms)", "speedup vs 0",
                      "warm wall/query (ms)"});
  double cold_depth0 = 0.0;
  uint64_t reference_fingerprint = 0;
  for (size_t depth : {0u, 1u, 2u, 4u, 8u}) {
    // Cold: no cache, so every chunk of every query is a (delayed) read.
    Searcher cold_searcher(&*index, DiskCostModel(), nullptr, Depth(depth));
    const PassResult cold =
        RunPass(cold_searcher, collection, query_positions, k);

    // Warm: pre-warmed oversized cache — the peek sees every chunk resident,
    // the pipeline issues nothing, and wall time collapses to pure scan.
    ChunkCache cache(1u << 20);
    Searcher warm_searcher(&*index, DiskCostModel(), &cache, Depth(depth));
    RunPass(warm_searcher, collection, query_positions, k);  // fill the cache
    const PassResult warm =
        RunPass(warm_searcher, collection, query_positions, k);

    if (depth == 0) {
      cold_depth0 = cold.mean_wall_micros;
      reference_fingerprint = cold.fingerprint;
    }
    QVT_CHECK(cold.fingerprint == reference_fingerprint)
        << "depth " << depth << " changed the search results";
    table.AddRow({std::to_string(depth),
                  TablePrinter::Num(cold.mean_wall_micros / 1000.0, 2),
                  TablePrinter::Num(cold_depth0 / cold.mean_wall_micros, 2) +
                      "x",
                  TablePrinter::Num(warm.mean_wall_micros / 1000.0, 2)});
  }
  table.Print(std::cout);
}

}  // namespace
}  // namespace qvt

int main(int argc, char** argv) {
  int64_t delay_micros = 400;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--delay-us") == 0) {
      delay_micros = std::atoll(argv[i + 1]);
    }
  }
  qvt::Run(delay_micros);
  return 0;
}
