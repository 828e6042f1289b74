#include "oracle.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <set>
#include <thread>
#include <utility>

namespace perfbench {

namespace {

bool Before(const qvt::Neighbor& a, const qvt::Neighbor& b) {
  return a.distance != b.distance ? a.distance < b.distance : a.id < b.id;
}

bool Close(double a, double b) {
  return std::fabs(a - b) <= kDistanceEpsilon * std::max(1.0, std::fabs(b));
}

std::string Describe(const char* what, size_t rank, uint32_t id) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s (rank %zu, id %u)", what, rank, id);
  return buf;
}

}  // namespace

double OracleDistance(std::span<const float> row,
                      std::span<const float> query) {
  double sum = 0.0;
  for (size_t d = 0; d < row.size(); ++d) {
    const double diff =
        static_cast<double>(row[d]) - static_cast<double>(query[d]);
    sum += diff * diff;
  }
  return std::sqrt(sum);
}

std::vector<qvt::Neighbor> BruteForceKnn(const qvt::Collection& collection,
                                         std::span<const uint8_t> live,
                                         std::span<const float> query,
                                         size_t k) {
  static thread_local std::vector<qvt::Neighbor> all;
  all.clear();
  for (size_t pos = 0; pos < collection.size(); ++pos) {
    if (!live.empty() && live[pos] == 0) continue;
    all.push_back({collection.Id(pos),
                   OracleDistance(collection.Vector(pos), query)});
  }
  const size_t n = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + n, all.end(), Before);
  return {all.begin(), all.begin() + n};
}

std::vector<std::vector<qvt::Neighbor>> BruteForceMany(
    const qvt::Collection& collection,
    const std::vector<std::vector<uint8_t>>& live,
    const std::vector<std::span<const float>>& queries, size_t k,
    size_t threads) {
  std::vector<std::vector<qvt::Neighbor>> out(queries.size());
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t i = next++; i < queries.size(); i = next++) {
      const std::span<const uint8_t> mask =
          live.empty() ? std::span<const uint8_t>() : live[i];
      out[i] = BruteForceKnn(collection, mask, queries[i], k);
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 1; t < std::max<size_t>(1, threads); ++t) {
    pool.emplace_back(work);
  }
  work();
  for (std::thread& t : pool) t.join();
  return out;
}

std::string CheckAnswer(const qvt::Collection& collection,
                        std::span<const uint8_t> live,
                        std::span<const float> query,
                        std::span<const qvt::Neighbor> answer,
                        std::span<const qvt::Neighbor> truth, size_t k,
                        AnswerMode mode) {
  if (answer.size() != truth.size() || answer.size() > k) {
    return "answer size " + std::to_string(answer.size()) + ", expected " +
           std::to_string(truth.size());
  }
  std::set<uint32_t> seen;
  for (size_t r = 0; r < answer.size(); ++r) {
    const qvt::Neighbor& n = answer[r];
    if (r > 0 && !Before(answer[r - 1], n)) {
      return Describe("not ascending by (distance, id)", r, n.id);
    }
    if (!seen.insert(n.id).second) return Describe("duplicate id", r, n.id);
    if (n.id >= collection.size() || collection.Id(n.id) != n.id) {
      return Describe("id not in the collection", r, n.id);
    }
    if (!live.empty() && live[n.id] == 0) {
      return Describe("id not live (deleted or not yet inserted)", r, n.id);
    }
    if (!Close(n.distance, OracleDistance(collection.Vector(n.id), query))) {
      return Describe("reported distance differs from the recomputed one", r,
                      n.id);
    }
  }
  if (answer.empty()) return "";
  const double true_kth = truth.back().distance;
  if (mode == AnswerMode::kExact) {
    // Every reported distance was verified against its own id above, so
    // position-wise equal distances leave room only for swaps among ties.
    for (size_t r = 0; r < answer.size(); ++r) {
      if (!Close(answer[r].distance, truth[r].distance)) {
        return Describe("exact answer differs from the brute force", r,
                        answer[r].id);
      }
    }
  } else if (answer.back().distance < true_kth &&
             !Close(answer.back().distance, true_kth)) {
    return "k-th distance below the brute-force k-th";
  }
  return "";
}

double RecallAt(std::span<const qvt::Neighbor> answer,
                std::span<const qvt::Neighbor> truth) {
  if (truth.empty()) return 1.0;
  size_t hit = 0;
  for (const qvt::Neighbor& t : truth) {
    for (const qvt::Neighbor& a : answer) {
      if (a.id == t.id) {
        ++hit;
        break;
      }
    }
  }
  return static_cast<double>(hit) / static_cast<double>(truth.size());
}

bool SameNeighbors(std::span<const qvt::Neighbor> a,
                   std::span<const qvt::Neighbor> b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].distance != b[i].distance) return false;
  }
  return true;
}

}  // namespace perfbench
