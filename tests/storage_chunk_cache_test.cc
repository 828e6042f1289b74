#include "storage/chunk_cache.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/srtree_chunker.h"
#include "core/chunk_index.h"
#include "core/searcher.h"
#include "descriptor/generator.h"
#include "util/logging.h"
#include "util/random.h"

namespace qvt {
namespace {

ChunkData MakeChunk(size_t n, DescriptorId first_id) {
  ChunkData chunk;
  chunk.dim = 4;
  for (size_t i = 0; i < n; ++i) {
    chunk.ids.push_back(first_id + static_cast<DescriptorId>(i));
    for (size_t d = 0; d < 4; ++d) {
      chunk.values.push_back(static_cast<float>(i + d));
    }
  }
  return chunk;
}

TEST(ChunkCacheTest, MissThenHit) {
  ChunkCache cache(10);
  EXPECT_EQ(cache.Get(1), nullptr);
  cache.Put(1, MakeChunk(3, 100), 2);
  const auto hit = cache.Get(1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->ids[0], 100u);
  EXPECT_EQ(cache.Stats().hits, 1u);
  EXPECT_EQ(cache.Stats().misses, 1u);
  EXPECT_EQ(cache.used_pages(), 2u);
}

TEST(ChunkCacheTest, EvictsLeastRecentlyUsed) {
  ChunkCache cache(4);
  cache.Put(1, MakeChunk(1, 0), 2);
  cache.Put(2, MakeChunk(1, 10), 2);
  ASSERT_NE(cache.Get(1), nullptr);   // 1 is now MRU
  cache.Put(3, MakeChunk(1, 20), 2);  // evicts 2
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_NE(cache.Get(3), nullptr);
  EXPECT_EQ(cache.Stats().evictions, 1u);
  EXPECT_LE(cache.used_pages(), 4u);
}

TEST(ChunkCacheTest, OversizedChunkNotCached) {
  ChunkCache cache(4);
  cache.Put(1, MakeChunk(1, 0), 5);
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_EQ(cache.used_pages(), 0u);
}

TEST(ChunkCacheTest, PutRefreshesExistingEntry) {
  ChunkCache cache(10);
  cache.Put(1, MakeChunk(1, 0), 2);
  cache.Put(1, MakeChunk(2, 50), 3);
  const auto hit = cache.Get(1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 2u);
  EXPECT_EQ(hit->ids[0], 50u);
  EXPECT_EQ(cache.used_pages(), 3u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ChunkCacheTest, ClearEmpties) {
  ChunkCache cache(10);
  cache.Put(1, MakeChunk(1, 0), 2);
  cache.Clear();
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_EQ(cache.used_pages(), 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ChunkCacheTest, HitRate) {
  ChunkCache cache(10);
  cache.Put(1, MakeChunk(1, 0), 1);
  cache.Get(1);
  cache.Get(1);
  cache.Get(2);
  EXPECT_NEAR(cache.Stats().HitRate(), 2.0 / 3.0, 1e-12);
}

TEST(ChunkCacheTest, EvictedChunkOutlivesEvictionWhileReferenced) {
  ChunkCache cache(2);
  cache.Put(1, MakeChunk(3, 100), 2);
  const auto held = cache.Get(1);
  ASSERT_NE(held, nullptr);
  cache.Put(2, MakeChunk(1, 200), 2);  // evicts chunk 1
  EXPECT_EQ(cache.Get(1), nullptr);
  // The outstanding reference still reads valid data.
  EXPECT_EQ(held->size(), 3u);
  EXPECT_EQ(held->ids[2], 102u);
}

TEST(ChunkCacheTest, ContainsProbesWithoutTouchingStatsOrLru) {
  ChunkCache cache(4);
  cache.Put(1, MakeChunk(1, 0), 2);
  cache.Put(2, MakeChunk(1, 10), 2);
  // Probe chunk 1 (the LRU victim candidate) many times: a Get would both
  // count hits and promote it to MRU; Contains must do neither.
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(cache.Contains(1));
    EXPECT_FALSE(cache.Contains(99));
  }
  EXPECT_EQ(cache.Stats().hits, 0u);
  EXPECT_EQ(cache.Stats().misses, 0u);
  cache.Put(3, MakeChunk(1, 20), 2);  // still evicts 1, not 2
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
}

// ---------------------------------------------------------------------------
// GetOrLoad single-flight
// ---------------------------------------------------------------------------

TEST(ChunkCacheTest, GetOrLoadHitSkipsLoader) {
  ChunkCache cache(10);
  cache.Put(1, MakeChunk(3, 100), 2);
  std::shared_ptr<const ChunkData> out;
  bool was_hit = false;
  auto status = cache.GetOrLoad(
      1, 2,
      [](ChunkData*) {
        ADD_FAILURE() << "loader must not run on a hit";
        return Status::OK();
      },
      &out, &was_hit);
  ASSERT_TRUE(status.ok());
  EXPECT_TRUE(was_hit);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->ids[0], 100u);
}

TEST(ChunkCacheTest, GetOrLoadMissRunsLoaderAndPublishes) {
  ChunkCache cache(10);
  std::shared_ptr<const ChunkData> out;
  bool was_hit = true;
  auto status = cache.GetOrLoad(
      7, 2,
      [](ChunkData* chunk) {
        *chunk = MakeChunk(2, 70);
        return Status::OK();
      },
      &out, &was_hit);
  ASSERT_TRUE(status.ok());
  EXPECT_FALSE(was_hit);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->ids[0], 70u);
  EXPECT_NE(cache.Get(7), nullptr);  // published for the next caller
  EXPECT_EQ(cache.used_pages(), 2u);
}

// The ISSUE's thundering-herd regression: N threads missing on the same
// chunk must coalesce onto one loader run, while each still counts a miss
// (per-query accounting reads as if it ran alone — only the physical read
// is deduplicated).
TEST(ChunkCacheTest, GetOrLoadCoalescesConcurrentMisses) {
  constexpr size_t kThreads = 8;
  ChunkCache cache(10);
  std::atomic<uint32_t> loads{0};
  std::atomic<size_t> arrived{0};

  std::vector<std::thread> threads;
  std::atomic<uint32_t> bad{0};
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::shared_ptr<const ChunkData> out;
      bool was_hit = true;
      arrived.fetch_add(1);
      auto status = cache.GetOrLoad(
          5, 2,
          [&](ChunkData* chunk) {
            loads.fetch_add(1);
            // Hold the load until every thread has reached GetOrLoad, so
            // all of them join this one flight instead of hitting later.
            while (arrived.load() < kThreads) std::this_thread::yield();
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            *chunk = MakeChunk(2, 50);
            return Status::OK();
          },
          &out, &was_hit);
      if (!status.ok() || was_hit || out == nullptr || out->ids[0] != 50u) {
        bad.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(loads.load(), 1u);  // one disk read for the whole herd
  EXPECT_EQ(bad.load(), 0u);
  const ChunkCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.misses, kThreads);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.single_flight_waits, kThreads - 1);
}

TEST(ChunkCacheTest, GetOrLoadErrorPublishesNothingAndRetries) {
  ChunkCache cache(10);
  std::shared_ptr<const ChunkData> out;
  bool was_hit = true;
  auto failed = cache.GetOrLoad(
      3, 2,
      [](ChunkData* chunk) {
        chunk->ids.push_back(999);  // torn read: partially-filled buffer
        return Status::IoError("injected");
      },
      &out, &was_hit);
  EXPECT_FALSE(failed.ok());
  EXPECT_FALSE(was_hit);
  EXPECT_EQ(cache.Get(3), nullptr);  // the torn buffer was never cached
  EXPECT_EQ(cache.used_pages(), 0u);

  // The failed flight is retired: the next miss retries from scratch.
  auto retried = cache.GetOrLoad(
      3, 2,
      [](ChunkData* chunk) {
        *chunk = MakeChunk(1, 30);
        return Status::OK();
      },
      &out, &was_hit);
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(out->ids[0], 30u);
}

TEST(ChunkCacheTest, GetOrLoadErrorReachesCoalescedWaiters) {
  ChunkCache cache(10);
  std::atomic<bool> leader_in_loader{false};
  std::atomic<bool> release{false};

  std::shared_ptr<const ChunkData> leader_out;
  bool leader_hit = true;
  Status leader_status;
  std::thread leader([&] {
    leader_status = cache.GetOrLoad(
        9, 2,
        [&](ChunkData*) {
          leader_in_loader.store(true);
          while (!release.load()) std::this_thread::yield();
          return Status::IoError("leader failed");
        },
        &leader_out, &leader_hit);
  });
  while (!leader_in_loader.load()) std::this_thread::yield();

  std::shared_ptr<const ChunkData> waiter_out;
  bool waiter_hit = true;
  Status waiter_status;
  std::thread waiter([&] {
    waiter_status = cache.GetOrLoad(
        9, 2, [](ChunkData*) { return Status::OK(); }, &waiter_out,
        &waiter_hit);
  });
  // Give the waiter time to attach to the in-flight load, then fail it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release.store(true);
  leader.join();
  waiter.join();

  EXPECT_FALSE(leader_status.ok());
  EXPECT_EQ(cache.Get(9), nullptr);
  // The waiter either shared the failed flight (error, no loader run) or
  // arrived after its retirement and ran its own loader successfully.
  if (!waiter_status.ok()) {
    EXPECT_EQ(waiter_out, nullptr);
  } else {
    EXPECT_FALSE(waiter_hit);
  }
}

TEST(ChunkCacheTest, GetOrLoadOversizedChunkReturnsDataUncached) {
  ChunkCache cache(4);
  std::shared_ptr<const ChunkData> out;
  bool was_hit = true;
  auto status = cache.GetOrLoad(
      2, 9,  // larger than the whole budget
      [](ChunkData* chunk) {
        *chunk = MakeChunk(2, 20);
        return Status::OK();
      },
      &out, &was_hit);
  ASSERT_TRUE(status.ok());
  EXPECT_FALSE(was_hit);
  ASSERT_NE(out, nullptr);  // caller can still scan the loaded buffer
  EXPECT_EQ(out->ids[0], 20u);
  EXPECT_EQ(cache.Get(2), nullptr);  // but it was too large to cache
  EXPECT_EQ(cache.used_pages(), 0u);
}

// ---------------------------------------------------------------------------
// Sharding
// ---------------------------------------------------------------------------

TEST(ShardedChunkCacheTest, ShardCountClampedToCapacity) {
  ChunkCache tiny(3, 16);
  EXPECT_EQ(tiny.num_shards(), 3u);
  ChunkCache one(10, 0);
  EXPECT_EQ(one.num_shards(), 1u);
  ChunkCache wide(1000, 8);
  EXPECT_EQ(wide.num_shards(), 8u);
}

TEST(ShardedChunkCacheTest, BudgetHeldAcrossShards) {
  ChunkCache cache(64, 4);
  for (uint64_t id = 0; id < 200; ++id) {
    cache.Put(id, MakeChunk(1, static_cast<DescriptorId>(id)), 3);
  }
  // Per-shard budgets sum to the total capacity, so the global page budget
  // is an invariant no interleaving can break.
  EXPECT_LE(cache.used_pages(), 64u);
  EXPECT_GT(cache.size(), 0u);
  EXPECT_GT(cache.Stats().evictions, 0u);
}

TEST(ShardedChunkCacheTest, StatsAggregateOverShards) {
  ChunkCache cache(100, 4);
  for (uint64_t id = 0; id < 20; ++id) {
    cache.Put(id, MakeChunk(1, 0), 1);
  }
  for (uint64_t id = 0; id < 20; ++id) {
    EXPECT_NE(cache.Get(id), nullptr) << "chunk " << id;
  }
  for (uint64_t id = 100; id < 110; ++id) {
    EXPECT_EQ(cache.Get(id), nullptr);
  }
  const ChunkCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 20u);
  EXPECT_EQ(stats.misses, 10u);
}

// The ISSUE's hammer test: many threads mixing Get/Put on a small sharded
// cache. Checks (a) no crash/race (run under TSan via QVT_SANITIZE=thread),
// (b) page budget and stats invariants hold afterwards, (c) every hit
// observes internally consistent chunk data even across evictions.
TEST(ShardedChunkCacheTest, ConcurrentHammerKeepsInvariants) {
  constexpr size_t kThreads = 8;
  constexpr size_t kOpsPerThread = 4000;
  constexpr uint64_t kIdSpace = 64;
  constexpr uint64_t kCapacity = 48;  // forces steady eviction churn

  ChunkCache cache(kCapacity, 4);
  std::atomic<uint64_t> gets{0};
  std::atomic<uint64_t> bad_reads{0};

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1234 + t);
      for (size_t op = 0; op < kOpsPerThread; ++op) {
        const uint64_t id = rng.Uniform(kIdSpace);
        if (rng.Uniform(3) == 0) {
          // Chunk contents are a function of the id, so readers can verify.
          cache.Put(id, MakeChunk(2, static_cast<DescriptorId>(id * 10)),
                    static_cast<uint32_t>(1 + id % 3));
        } else {
          gets.fetch_add(1, std::memory_order_relaxed);
          const auto chunk = cache.Get(id);
          if (chunk != nullptr &&
              (chunk->size() != 2 ||
               chunk->ids[0] != static_cast<DescriptorId>(id * 10))) {
            bad_reads.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(bad_reads.load(), 0u);
  EXPECT_LE(cache.used_pages(), kCapacity);
  const ChunkCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits + stats.misses, gets.load());
  // Re-walk the id space serially: everything still resident must verify.
  size_t resident = 0;
  for (uint64_t id = 0; id < kIdSpace; ++id) {
    const auto chunk = cache.Get(id);
    if (chunk == nullptr) continue;
    ++resident;
    ASSERT_EQ(chunk->size(), 2u);
    EXPECT_EQ(chunk->ids[0], static_cast<DescriptorId>(id * 10));
  }
  EXPECT_EQ(resident, cache.size());
}

// ---------------------------------------------------------------------------
// Searcher integration
// ---------------------------------------------------------------------------

struct SearchFixture {
  MemEnv env;
  Collection collection;
  std::optional<ChunkIndex> index;

  SearchFixture() {
    GeneratorConfig generator;
    generator.num_images = 40;
    generator.descriptors_per_image = 30;
    generator.num_modes = 8;
    generator.seed = 31;
    collection = GenerateCollection(generator);
    SrTreeChunker chunker(100);
    auto chunking = chunker.FormChunks(collection);
    QVT_CHECK(chunking.ok());
    auto built = ChunkIndex::Build(collection, *chunking, &env,
                                   ChunkIndexPaths::ForBase("idx"));
    QVT_CHECK(built.ok());
    index.emplace(std::move(built).value());
  }
};

TEST(CachedSearcherTest, RepeatedQueryHitsCache) {
  SearchFixture fx;
  ChunkCache cache(100000);
  Searcher searcher(&*fx.index, DiskCostModel(), &cache);

  auto cold = searcher.Search(fx.collection.Vector(5), 10, StopRule::Exact());
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cache.Stats().hits, 0u);
  const uint64_t misses_after_cold = cache.Stats().misses;
  EXPECT_GT(misses_after_cold, 0u);

  auto warm = searcher.Search(fx.collection.Vector(5), 10, StopRule::Exact());
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(cache.Stats().misses, misses_after_cold);  // all hits now
  EXPECT_GT(cache.Stats().hits, 0u);

  // Identical answers, cheaper modeled time (no I/O charges on hits).
  ASSERT_EQ(cold->neighbors.size(), warm->neighbors.size());
  for (size_t i = 0; i < cold->neighbors.size(); ++i) {
    EXPECT_EQ(cold->neighbors[i].id, warm->neighbors[i].id);
  }
  EXPECT_LT(warm->telemetry.model_micros, cold->telemetry.model_micros);
}

TEST(CachedSearcherTest, CacheAgreesWithUncachedSearch) {
  SearchFixture fx;
  ChunkCache cache(64);  // tiny: constant eviction churn
  Searcher cached(&*fx.index, DiskCostModel(), &cache);
  Searcher plain(&*fx.index, DiskCostModel());

  for (size_t pos : {0u, 11u, 222u, 333u}) {
    auto a = cached.Search(fx.collection.Vector(pos), 8, StopRule::Exact());
    auto b = plain.Search(fx.collection.Vector(pos), 8, StopRule::Exact());
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->neighbors.size(), b->neighbors.size());
    for (size_t i = 0; i < a->neighbors.size(); ++i) {
      EXPECT_EQ(a->neighbors[i].id, b->neighbors[i].id);
      EXPECT_DOUBLE_EQ(a->neighbors[i].distance, b->neighbors[i].distance);
    }
  }
}

// Satellite regression: SearchRange must route chunk reads through the cache
// and charge CPU-only on hits, exactly like Search.
TEST(CachedSearcherTest, RangeSearchUsesCache) {
  SearchFixture fx;
  ChunkCache cache(100000);
  Searcher searcher(&*fx.index, DiskCostModel(), &cache);
  const auto query = fx.collection.Vector(17);
  const double radius = 10.0;

  auto cold = searcher.SearchRange(query, radius, StopRule::Exact());
  ASSERT_TRUE(cold.ok());
  const ChunkCacheStats after_cold = cache.Stats();
  EXPECT_GT(after_cold.misses, 0u);

  auto warm = searcher.SearchRange(query, radius, StopRule::Exact());
  ASSERT_TRUE(warm.ok());
  const ChunkCacheStats after_warm = cache.Stats();
  EXPECT_EQ(after_warm.misses, after_cold.misses);  // all resident now
  EXPECT_GT(after_warm.hits, after_cold.hits);

  // Same answer, but hits were charged ChunkCpuMicros instead of full I/O.
  ASSERT_EQ(cold->neighbors.size(), warm->neighbors.size());
  for (size_t i = 0; i < cold->neighbors.size(); ++i) {
    EXPECT_EQ(cold->neighbors[i].id, warm->neighbors[i].id);
  }
  EXPECT_LT(warm->telemetry.model_micros, cold->telemetry.model_micros);
}

TEST(CachedSearcherTest, RangeSearchCacheAgreesWithUncached) {
  SearchFixture fx;
  ChunkCache cache(64);  // eviction churn
  Searcher cached(&*fx.index, DiskCostModel(), &cache);
  Searcher plain(&*fx.index, DiskCostModel());

  for (size_t pos : {3u, 77u, 400u}) {
    for (double radius : {4.0, 9.0}) {
      auto a = cached.SearchRange(fx.collection.Vector(pos), radius,
                                  StopRule::Exact());
      auto b = plain.SearchRange(fx.collection.Vector(pos), radius,
                                 StopRule::Exact());
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a->telemetry.chunks_read, b->telemetry.chunks_read);
      ASSERT_EQ(a->neighbors.size(), b->neighbors.size());
      for (size_t i = 0; i < a->neighbors.size(); ++i) {
        EXPECT_EQ(a->neighbors[i].id, b->neighbors[i].id);
        EXPECT_DOUBLE_EQ(a->neighbors[i].distance, b->neighbors[i].distance);
      }
    }
  }
}

}  // namespace
}  // namespace qvt
