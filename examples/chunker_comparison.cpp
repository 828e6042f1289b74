// Mini-version of the paper's Experiment 1 (§5.5), runnable in seconds:
// form chunks of the same collection with four strategies — BAG (quality
// first), SR-tree (size first), k-means and round-robin — and compare chunk
// economy (chunks read to find the true top 10) against time economy
// (modeled time), for dataset queries.
//
//   ./build/examples/chunker_comparison

#include <cstdio>
#include <memory>
#include <vector>

#include "cluster/bag.h"
#include "cluster/kmeans.h"
#include "cluster/round_robin.h"
#include "cluster/srtree_chunker.h"
#include "core/chunk_index.h"
#include "core/evaluation.h"
#include "core/exact_scan.h"
#include "core/searcher.h"
#include "descriptor/generator.h"
#include "descriptor/workload.h"
#include "util/random.h"

int main() {
  using namespace qvt;

  GeneratorConfig generator;
  generator.num_images = 150;
  generator.descriptors_per_image = 60;
  generator.num_modes = 12;
  const Collection collection = GenerateCollection(generator);
  std::printf("collection: %zu descriptors\n", collection.size());

  const size_t target_chunk = 500;
  const size_t target_count = collection.size() / target_chunk;

  BagConfig bag_config;
  KMeansConfig km_config;
  km_config.num_clusters = target_count;

  std::vector<std::pair<const char*, std::unique_ptr<Chunker>>> chunkers;
  chunkers.emplace_back("BAG", std::make_unique<BagChunker>(
                                   std::max<size_t>(1, target_count * 2),
                                   bag_config));
  chunkers.emplace_back("SR-tree",
                        std::make_unique<SrTreeChunker>(target_chunk));
  chunkers.emplace_back("k-means",
                        std::make_unique<KMeansChunker>(km_config));
  chunkers.emplace_back("round-robin",
                        std::make_unique<RoundRobinChunker>(target_chunk));

  Rng rng(3);
  const Workload queries = MakeDatasetQueries(collection, 40, &rng);
  const size_t k = 10;

  std::printf("%-12s %-8s %-10s %-10s %-14s %-12s\n", "chunker", "chunks",
              "largest", "discarded", "chunks to k", "time to k (s)");
  for (auto& [name, chunker] : chunkers) {
    auto chunking = chunker->FormChunks(collection);
    if (!chunking.ok()) {
      std::printf("%-12s failed: %s\n", name,
                  chunking.status().ToString().c_str());
      continue;
    }
    // Score against the retained set of THIS chunking (BAG discards
    // outliers).
    std::vector<size_t> retained_positions;
    for (const auto& chunk : chunking->chunks) {
      retained_positions.insert(retained_positions.end(), chunk.begin(),
                                chunk.end());
    }
    const Collection retained = collection.Subset(retained_positions);
    const GroundTruth truth = GroundTruth::Compute(retained, queries, k);

    auto index = ChunkIndex::Build(
        collection, *chunking, Env::Posix(),
        ChunkIndexPaths::ForBase(std::string("/tmp/cmp_") + name));
    if (!index.ok()) return 1;

    size_t largest = 0;
    for (const ChunkLocation& loc : index->locations()) {
      largest = std::max<size_t>(largest, loc.num_descriptors);
    }

    Searcher searcher(&*index, DiskCostModel());
    double chunks_to_k = 0.0, seconds_to_k = 0.0;
    for (size_t q = 0; q < queries.num_queries(); ++q) {
      const TruthSet truth_set(truth.TruthFor(q));
      size_t chunks_when_done = 0;
      int64_t micros_when_done = 0;
      const SearchObserver observer = [&](const SearchProgress& progress) {
        if (chunks_when_done == 0 &&
            truth_set.CountFound(progress.result->Unordered()) == k) {
          chunks_when_done = progress.chunks_read;
          micros_when_done = progress.model_elapsed_micros;
        }
      };
      auto result =
          searcher.Search(queries.Query(q), k, StopRule::Exact(), observer);
      if (!result.ok()) return 1;
      if (chunks_when_done == 0) {
        chunks_when_done = result->telemetry.chunks_read;
        micros_when_done = result->telemetry.model_micros;
      }
      chunks_to_k += static_cast<double>(chunks_when_done);
      seconds_to_k += static_cast<double>(micros_when_done) * 1e-6;
    }
    const double nq = static_cast<double>(queries.num_queries());
    std::printf("%-12s %-8zu %-10zu %-10zu %-14.1f %-12.3f\n", name,
                index->num_chunks(), largest, chunking->outliers.size(),
                chunks_to_k / nq, seconds_to_k / nq);
  }
  std::printf("\nlesson (paper §5.7): chunk economy favors dense clusters "
              "(BAG/k-means), but time economy favors uniform chunks — and "
              "uniform chunks are vastly cheaper to form.\n");
  return 0;
}
