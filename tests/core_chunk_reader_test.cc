// The one chunk-read ledger (ChunkReader::Fetch + Charge): every path that
// reads the chunk file — the chunked searcher's query-major, range and
// chunk-major loops and the pq method's per-query and shared reranks —
// must satisfy the same per-query identities, with and without a cache and
// at prefetch depths 0 and 4:
//   * chunks_read == probes;
//   * cache_hits + cache_misses == chunks_read when a cache is wired, else
//     both are 0;
//   * bytes_read == (pages of the chunks not served by the cache) x
//     kPageSize;
//   * on the chunked paths, model_overlapped_micros <= model_micros (equal
//     at depth 0: one model clock).

#include "core/chunk_reader.h"

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/srtree_chunker.h"
#include "core/search_method.h"
#include "descriptor/generator.h"
#include "storage/chunk_cache.h"
#include "storage/page.h"
#include "util/logging.h"
#include "util/random.h"

namespace qvt {
namespace {

struct LedgerFixture {
  MemEnv env;
  Collection collection;
  std::optional<ChunkIndex> index;
  std::vector<std::vector<float>> queries;

  LedgerFixture() {
    GeneratorConfig config;
    config.num_images = 40;
    config.descriptors_per_image = 20;
    config.num_modes = 6;
    config.seed = 41;
    collection = GenerateCollection(config);
    SrTreeChunker chunker(60);
    auto chunking = chunker.FormChunks(collection);
    QVT_CHECK(chunking.ok());
    // Every row lives in the chunk file, so the pq rerank reads no
    // collection rows and its bytes are chunk pages alone.
    QVT_CHECK(chunking->outliers.empty());
    auto built = ChunkIndex::Build(collection, *chunking, &env,
                                   ChunkIndexPaths::ForBase("idx"));
    QVT_CHECK(built.ok());
    index.emplace(std::move(built).value());
    Rng rng(7);
    for (size_t q = 0; q < 4; ++q) {
      const auto row = collection.Vector(rng.Uniform(collection.size()));
      std::vector<float> query(row.begin(), row.end());
      for (float& v : query) {
        v += static_cast<float>(rng.UniformDouble(-0.5, 0.5));
      }
      queries.push_back(std::move(query));
    }
  }

  uint64_t TotalPages() const {
    uint64_t pages = 0;
    for (const ChunkLocation& loc : index->locations()) pages += loc.num_pages;
    return pages;
  }

  std::vector<bool> Resident(const ChunkCache& cache) const {
    std::vector<bool> resident(index->num_chunks());
    for (size_t c = 0; c < resident.size(); ++c) {
      resident[c] = cache.Contains(c);
    }
    return resident;
  }

  /// Pages of the chunks that became resident between two snapshots.
  uint64_t LoadedPages(const std::vector<bool>& before,
                       const std::vector<bool>& after,
                       uint64_t* chunks) const {
    uint64_t pages = 0;
    *chunks = 0;
    for (size_t c = 0; c < before.size(); ++c) {
      if (after[c] && !before[c]) {
        pages += index->location(c).num_pages;
        ++*chunks;
      }
    }
    return pages;
  }
};

/// One chunk-reading path: runs `query` through `method`, one query at a
/// time (a one-query batch on the shared paths), so every chunk it reads
/// is fetched exactly once.
struct LedgerPath {
  const char* name;
  const char* method;
  const char* params;
  bool disk_model;
  std::function<StatusOr<MethodResult>(const SearchMethod&,
                                       std::span<const float>)>
      run;
};

StatusOr<MethodResult> OneQueryShared(const SearchMethod& method,
                                      std::span<const float> query) {
  const std::span<const float> queries[] = {query};
  QVT_ASSIGN_OR_RETURN(
      std::vector<MethodResult> results,
      method.SearchShared(queries, 10, StopRule::Exact(), 1, nullptr));
  return std::move(results.front());
}

std::vector<LedgerPath> Paths() {
  return {
      {"chunked/Search", "chunked", "", true,
       [](const SearchMethod& m, std::span<const float> q) {
         return m.Search(q, 10, StopRule::Exact());
       }},
      {"chunked/SearchRange", "chunked", "", true,
       [](const SearchMethod& m, std::span<const float> q) {
         return m.SearchRange(q, 6.0, StopRule::Exact());
       }},
      {"chunked/SearchShared", "chunked", "", true, OneQueryShared},
      {"pq/SearchShared", "pq", "rerank=32", false, OneQueryShared},
      {"pq/rerank", "pq", "rerank=32", false,
       [](const SearchMethod& m, std::span<const float> q) {
         return m.Search(q, 10, StopRule::Exact());
       }},
  };
}

std::unique_ptr<SearchMethod> Prepared(const LedgerFixture& fx,
                                       const LedgerPath& path,
                                       ChunkCache* cache, size_t depth) {
  MethodContext context;
  context.collection = &fx.collection;
  context.index = &*fx.index;
  context.cache = cache;
  context.prefetch.depth = depth;
  context.env = const_cast<MemEnv*>(&fx.env);
  auto method =
      MethodRegistry::Global().Create(path.method, context, path.params);
  QVT_CHECK_OK(method.status());
  QVT_CHECK_OK((*method)->Prepare());
  return std::move(method).value();
}

TEST(ChunkLedgerParityTest, IdentitiesHoldOnEveryChunkReadingPath) {
  const LedgerFixture fx;
  const uint64_t capacity = fx.TotalPages() + 1;  // never evicts
  for (const LedgerPath& path : Paths()) {
    // Which chunks a query reads does not depend on the cache, so a run
    // against an emptied never-evicting cache names them.
    ChunkCache probe_cache(capacity);
    const auto probe = Prepared(fx, path, &probe_cache, 0);
    for (const bool with_cache : {false, true}) {
      for (const size_t depth : {size_t{0}, size_t{4}}) {
        const std::string label = std::string(path.name) +
                                  (with_cache ? " cache" : " no-cache") +
                                  " depth " + std::to_string(depth);
        SCOPED_TRACE(label);
        std::optional<ChunkCache> cache;
        if (with_cache) cache.emplace(capacity);
        const auto method =
            Prepared(fx, path, with_cache ? &*cache : nullptr, depth);
        uint64_t hit_total = 0;
        for (size_t q = 0; q < fx.queries.size(); ++q) {
          probe_cache.Clear();
          const std::vector<bool> probe_before = fx.Resident(probe_cache);
          ASSERT_TRUE(path.run(*probe, fx.queries[q]).ok());
          uint64_t read_chunks = 0;
          const uint64_t read_pages = fx.LoadedPages(
              probe_before, fx.Resident(probe_cache), &read_chunks);

          // Earlier queries leave part of this one's chunks resident, so
          // the cached runs mix hits and misses.
          const std::vector<bool> before =
              with_cache ? fx.Resident(*cache) : std::vector<bool>();
          auto result = path.run(*method, fx.queries[q]);
          ASSERT_TRUE(result.ok()) << result.status().message();
          const QueryTelemetry& t = result->telemetry;

          EXPECT_GT(t.chunks_read, 0u) << "query " << q;
          EXPECT_EQ(t.chunks_read, t.probes) << "query " << q;
          if (!with_cache) {
            EXPECT_EQ(t.cache_hits, 0u) << "query " << q;
            EXPECT_EQ(t.cache_misses, 0u) << "query " << q;
            // Every chunk came off the chunk file.
            EXPECT_EQ(t.bytes_read, read_pages * kPageSize) << "query " << q;
          } else {
            EXPECT_EQ(t.cache_hits + t.cache_misses, t.chunks_read)
                << "query " << q;
            uint64_t loaded_chunks = 0;
            const uint64_t loaded_pages =
                fx.LoadedPages(before, fx.Resident(*cache), &loaded_chunks);
            // Misses are exactly the chunks this query loaded, and only
            // their pages are charged as bytes read.
            EXPECT_EQ(t.cache_misses, loaded_chunks) << "query " << q;
            EXPECT_EQ(t.bytes_read, loaded_pages * kPageSize)
                << "query " << q;
            hit_total += t.cache_hits;
          }
          EXPECT_EQ(t.chunks_read, read_chunks) << "query " << q;
          if (path.disk_model) {
            EXPECT_LE(t.model_overlapped_micros, t.model_micros)
                << "query " << q;
            if (depth == 0) {
              EXPECT_EQ(t.model_overlapped_micros, t.model_micros)
                  << "query " << q;
            }
          } else {
            EXPECT_EQ(t.model_micros, 0) << "query " << q;
          }
        }
        // The queries overlap, so the cached runs did serve hits.
        if (with_cache) {
          EXPECT_GT(hit_total, 0u);
        }
      }
    }
  }
}

}  // namespace
}  // namespace qvt
