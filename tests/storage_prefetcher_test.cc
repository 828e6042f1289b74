#include "storage/prefetcher.h"

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "storage/chunk_cache.h"
#include "util/status.h"

namespace qvt {
namespace {

// Synthetic chunk contents: a function of the id, so consumers can verify
// they received the read for the chunk they asked for.
void FillChunk(uint32_t chunk_id, ChunkData* out) {
  out->dim = 4;
  out->ids.assign({chunk_id * 10, chunk_id * 10 + 1});
  out->values.assign(8, static_cast<float>(chunk_id));
}

bool ChunkMatches(uint32_t chunk_id, const ChunkData& chunk) {
  return chunk.size() == 2 && chunk.ids[0] == chunk_id * 10 &&
         chunk.values.size() == 8 &&
         chunk.values[0] == static_cast<float>(chunk_id);
}

// A read function whose latency and outcome the test controls: it counts
// invocations per chunk, optionally blocks on a gate, and fails for chunks
// in `fail_ids` *after* scribbling a partial buffer (the crash-safety case:
// a torn read must never become visible to anyone).
struct FakeDisk {
  std::mutex mu;
  std::condition_variable cv;
  bool gate_open = true;
  std::atomic<uint64_t> total_reads{0};
  std::array<std::atomic<uint32_t>, 64> per_chunk_reads{};
  std::vector<uint32_t> fail_ids;

  ChunkReadFn ReadFn() {
    return [this](uint32_t chunk_id, ChunkData* out) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [this] { return gate_open; });
      }
      total_reads.fetch_add(1, std::memory_order_relaxed);
      per_chunk_reads[chunk_id].fetch_add(1, std::memory_order_relaxed);
      for (uint32_t fail : fail_ids) {
        if (chunk_id == fail) {
          out->dim = 4;
          out->ids.assign({999999u});  // torn read: half-filled buffer
          return Status::IoError("injected read failure");
        }
      }
      FillChunk(chunk_id, out);
      return Status::OK();
    };
  }

  static ChunkPagesFn PagesFn() {
    return [](uint32_t) { return 1u; };
  }

  void CloseGate() {
    std::lock_guard<std::mutex> lock(mu);
    gate_open = false;
  }

  void OpenGate() {
    {
      std::lock_guard<std::mutex> lock(mu);
      gate_open = true;
    }
    cv.notify_all();
  }
};

PrefetcherOptions Options(size_t depth, size_t io_threads = 2) {
  PrefetcherOptions options;
  options.depth = depth;
  options.io_threads = io_threads;
  return options;
}

TEST(PrefetcherTest, DepthFromEnvParsesAndClamps) {
  unsetenv("QVT_PREFETCH_DEPTH");
  EXPECT_EQ(PrefetcherOptions::DepthFromEnvOr(4), 4u);
  setenv("QVT_PREFETCH_DEPTH", "0", 1);
  EXPECT_EQ(PrefetcherOptions::DepthFromEnvOr(4), 0u);
  setenv("QVT_PREFETCH_DEPTH", "7", 1);
  EXPECT_EQ(PrefetcherOptions::DepthFromEnvOr(4), 7u);
  setenv("QVT_PREFETCH_DEPTH", "9999", 1);
  EXPECT_EQ(PrefetcherOptions::DepthFromEnvOr(4), 64u);  // clamped
  setenv("QVT_PREFETCH_DEPTH", "not-a-number", 1);
  EXPECT_EQ(PrefetcherOptions::DepthFromEnvOr(4), 4u);
  setenv("QVT_PREFETCH_DEPTH", "-3", 1);
  EXPECT_EQ(PrefetcherOptions::DepthFromEnvOr(4), 4u);
  unsetenv("QVT_PREFETCH_DEPTH");
}

TEST(PrefetcherTest, DeliversChunksInRankOrderWithoutCache) {
  FakeDisk disk;
  ChunkPrefetcher prefetcher(disk.ReadFn(), FakeDisk::PagesFn(), nullptr,
                             Options(3));
  const std::vector<uint32_t> order{5, 1, 9, 3, 7};
  auto stream = prefetcher.NewStream({order.data(), order.size()});

  for (uint32_t chunk_id : order) {
    std::shared_ptr<const ChunkData> ref;
    const ChunkData* data = nullptr;
    bool from_cache = true;
    ASSERT_TRUE(stream->Next(&ref, &data, &from_cache).ok());
    ASSERT_NE(data, nullptr);
    EXPECT_FALSE(from_cache);  // no cache: never a hit
    EXPECT_TRUE(ChunkMatches(chunk_id, *data)) << "chunk " << chunk_id;
  }
  const PrefetchStats stats = stream->Finish();
  EXPECT_EQ(stats.issued, order.size());
  EXPECT_EQ(stats.used, order.size());
  EXPECT_EQ(stats.wasted, 0u);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(disk.total_reads.load(), order.size());
}

TEST(PrefetcherTest, PublishesConsumedChunksToCacheExactlyLikeSyncPath) {
  FakeDisk disk;
  ChunkCache cache(100);
  ChunkPrefetcher prefetcher(disk.ReadFn(), FakeDisk::PagesFn(), &cache,
                             Options(2));
  const std::vector<uint32_t> order{4, 8, 2};

  {
    auto stream = prefetcher.NewStream({order.data(), order.size()});
    for (uint32_t chunk_id : order) {
      std::shared_ptr<const ChunkData> ref;
      const ChunkData* data = nullptr;
      bool from_cache = true;
      ASSERT_TRUE(stream->Next(&ref, &data, &from_cache).ok());
      EXPECT_FALSE(from_cache);  // cold cache: every consume is a miss
      EXPECT_TRUE(ChunkMatches(chunk_id, *data));
    }
  }
  // The consume-time misses published through Put: all three are resident,
  // and the stats stream reads exactly like a synchronous cold pass.
  ChunkCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.misses, order.size());
  EXPECT_EQ(stats.hits, 0u);
  for (uint32_t chunk_id : order) {
    EXPECT_TRUE(cache.Contains(chunk_id)) << "chunk " << chunk_id;
  }

  // Warm pass: the issue-time peek sees residents, so no reads are issued
  // and every Next() is an authoritative cache hit.
  auto warm = prefetcher.NewStream({order.data(), order.size()});
  for (uint32_t chunk_id : order) {
    std::shared_ptr<const ChunkData> ref;
    const ChunkData* data = nullptr;
    bool from_cache = false;
    ASSERT_TRUE(warm->Next(&ref, &data, &from_cache).ok());
    EXPECT_TRUE(from_cache);
    EXPECT_TRUE(ChunkMatches(chunk_id, *data));
  }
  const PrefetchStats warm_stats = warm->Finish();
  EXPECT_EQ(warm_stats.issued, 0u);
  EXPECT_EQ(disk.total_reads.load(), order.size());  // no second reads
  stats = cache.Stats();
  EXPECT_EQ(stats.hits, order.size());
  EXPECT_EQ(stats.misses, order.size());
}

// The thundering-herd fix at the prefetcher layer: two streams racing over
// the same missing chunk share one background pread.
TEST(PrefetcherTest, ConcurrentStreamsSingleFlightTheSameChunk) {
  FakeDisk disk;
  disk.CloseGate();  // hold the read so both streams attach to one job
  ChunkCache cache(100);
  ChunkPrefetcher prefetcher(disk.ReadFn(), FakeDisk::PagesFn(), &cache,
                             Options(2));
  const std::vector<uint32_t> order{6};

  auto a = prefetcher.NewStream({order.data(), order.size()});
  auto b = prefetcher.NewStream({order.data(), order.size()});
  disk.OpenGate();

  for (PrefetchStream* stream : {a.get(), b.get()}) {
    std::shared_ptr<const ChunkData> ref;
    const ChunkData* data = nullptr;
    bool from_cache = false;
    ASSERT_TRUE(stream->Next(&ref, &data, &from_cache).ok());
    EXPECT_TRUE(ChunkMatches(6, *data));
  }
  EXPECT_EQ(disk.per_chunk_reads[6].load(), 1u);  // one pread, two consumers

  const PrefetchStats sa = a->Finish();
  const PrefetchStats sb = b->Finish();
  // Both asked for the (shared) read; between them it was consumed once and
  // the loser's attachment resolved as a cache hit over the winner's Put.
  EXPECT_EQ(sa.issued + sb.issued, 2u);
  EXPECT_EQ(sa.used + sb.used + sa.wasted + sb.wasted, 2u);
  EXPECT_EQ(sa.cancelled + sb.cancelled, 0u);
}

TEST(PrefetcherTest, FinishCancelsOutstandingReadsPromptly) {
  FakeDisk disk;
  disk.CloseGate();
  ChunkCache cache(100);
  ChunkPrefetcher prefetcher(disk.ReadFn(), FakeDisk::PagesFn(), &cache,
                             Options(6, /*io_threads=*/2));
  const std::vector<uint32_t> order{1, 2, 3, 4, 5, 6, 7, 8};

  auto stream = prefetcher.NewStream({order.data(), order.size()});
  // Simulates a stop rule firing before the first chunk is even consumed.
  const PrefetchStats stats = stream->Finish();
  EXPECT_EQ(stats.issued, 6u);  // depth-limited window
  EXPECT_EQ(stats.used, 0u);
  EXPECT_EQ(stats.wasted + stats.cancelled, stats.issued);
  // With the disk gate still closed nothing had completed: all cancelled.
  EXPECT_EQ(stats.cancelled, stats.issued);

  disk.OpenGate();
  stream.reset();
  // Reads the workers never started are skipped outright; the (at most
  // io_threads) in-flight ones complete into the void, with nobody
  // interested. Crucially, nothing cancelled is ever published to the
  // cache — a cancelled prefetch must leave no trace.
  for (uint32_t chunk_id : order) {
    EXPECT_FALSE(cache.Contains(chunk_id)) << "chunk " << chunk_id;
  }
  EXPECT_EQ(cache.Stats().misses, 0u);  // peeks and Puts never touch stats
}

TEST(PrefetcherTest, CancelledReadsAreSkippedByIdleWorkers) {
  FakeDisk disk;
  disk.CloseGate();
  ChunkPrefetcher prefetcher(disk.ReadFn(), FakeDisk::PagesFn(), nullptr,
                             Options(8, /*io_threads=*/1));
  const std::vector<uint32_t> order{10, 11, 12, 13, 14, 15, 16, 17};
  auto stream = prefetcher.NewStream({order.data(), order.size()});
  stream->Finish();
  disk.OpenGate();
  stream.reset();
  // Force the pool to drain by issuing (and consuming) a fresh read.
  const std::vector<uint32_t> tail{20};
  auto probe = prefetcher.NewStream({tail.data(), tail.size()});
  std::shared_ptr<const ChunkData> ref;
  const ChunkData* data = nullptr;
  bool from_cache = false;
  ASSERT_TRUE(probe->Next(&ref, &data, &from_cache).ok());
  probe->Finish();
  // The single worker was parked on chunk 10's read when Finish() dropped
  // interest; every queued-but-unstarted read after it must have been
  // skipped without touching the disk.
  EXPECT_LE(disk.total_reads.load(), 2u);  // chunk 10 (in flight) + probe
}

TEST(PrefetcherTest, FailedReadSurfacesAtItsRankAndNeverPublishes) {
  FakeDisk disk;
  disk.fail_ids = {3};
  ChunkCache cache(100);
  ChunkPrefetcher prefetcher(disk.ReadFn(), FakeDisk::PagesFn(), &cache,
                             Options(4));
  const std::vector<uint32_t> order{1, 2, 3, 4};
  auto stream = prefetcher.NewStream({order.data(), order.size()});

  std::shared_ptr<const ChunkData> ref;
  const ChunkData* data = nullptr;
  bool from_cache = false;
  ASSERT_TRUE(stream->Next(&ref, &data, &from_cache).ok());  // chunk 1
  EXPECT_TRUE(ChunkMatches(1, *data));
  ASSERT_TRUE(stream->Next(&ref, &data, &from_cache).ok());  // chunk 2
  EXPECT_TRUE(ChunkMatches(2, *data));
  // The error arrives exactly where the synchronous path would hit it.
  const Status failed = stream->Next(&ref, &data, &from_cache);
  EXPECT_FALSE(failed.ok());
  stream->Finish();

  // Crash safety: the torn buffer of the failed read is recycled, never
  // cached — later lookups miss and would retry from disk.
  EXPECT_FALSE(cache.Contains(3));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
}

TEST(PrefetcherTest, EvictionBetweenPeekAndConsumeFallsBackToSyncRead) {
  FakeDisk disk;
  ChunkCache cache(100);
  ChunkPrefetcher prefetcher(disk.ReadFn(), FakeDisk::PagesFn(), &cache,
                             Options(2));
  cache.Put(30, [] {
    ChunkData chunk;
    FillChunk(30, &chunk);
    return chunk;
  }(), 1);

  const std::vector<uint32_t> order{30};
  auto stream = prefetcher.NewStream({order.data(), order.size()});
  // Peek saw chunk 30 resident, so no read was issued. Evict it before the
  // consume: Next() must behave like the synchronous path (miss + read).
  cache.Clear();
  std::shared_ptr<const ChunkData> ref;
  const ChunkData* data = nullptr;
  bool from_cache = true;
  ASSERT_TRUE(stream->Next(&ref, &data, &from_cache).ok());
  EXPECT_FALSE(from_cache);
  EXPECT_TRUE(ChunkMatches(30, *data));
  EXPECT_EQ(disk.per_chunk_reads[30].load(), 1u);
  const PrefetchStats stats = stream->Finish();
  EXPECT_EQ(stats.issued, 0u);  // the read was the sync fallback, not issued
  // And it re-published, like ChunkReader::Fetch.
  EXPECT_TRUE(cache.Contains(30));
}

TEST(PrefetcherTest, ManyStreamsOverSharedChunksAreRaceFree) {
  // TSan hammer: concurrent streams over overlapping orders, with eviction
  // churn, shared single-flight jobs, and mid-stream Finish() cancellation.
  FakeDisk disk;
  ChunkCache cache(8);  // tiny: constant eviction while streams race
  ChunkPrefetcher prefetcher(disk.ReadFn(), FakeDisk::PagesFn(), &cache,
                             Options(3, /*io_threads=*/3));

  constexpr size_t kThreads = 6;
  std::atomic<uint64_t> bad_chunks{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<uint32_t> order;
      for (uint32_t i = 0; i < 24; ++i) {
        order.push_back((static_cast<uint32_t>(t) * 7 + i) % 16);
      }
      for (int pass = 0; pass < 3; ++pass) {
        auto stream = prefetcher.NewStream({order.data(), order.size()});
        // Consume a pass-dependent prefix, stranding the rest (cancel path).
        const size_t consume = pass == 0 ? order.size() : 5 + 3 * pass;
        for (size_t i = 0; i < consume; ++i) {
          std::shared_ptr<const ChunkData> ref;
          const ChunkData* data = nullptr;
          bool from_cache = false;
          const Status status = stream->Next(&ref, &data, &from_cache);
          if (!status.ok() || !ChunkMatches(order[i], *data)) {
            bad_chunks.fetch_add(1, std::memory_order_relaxed);
          }
        }
        stream->Finish();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(bad_chunks.load(), 0u);
  EXPECT_LE(cache.used_pages(), 8u);
}

}  // namespace
}  // namespace qvt
