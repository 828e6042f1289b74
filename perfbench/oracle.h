#ifndef QVT_PERFBENCH_ORACLE_H_
#define QVT_PERFBENCH_ORACLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/result_set.h"
#include "descriptor/collection.h"

namespace perfbench {

/// Relative tolerance for comparing a reported distance with the oracle's
/// recomputation. Both sides sum squared differences in double in
/// dimension order, so they normally agree bit for bit; the slack only
/// absorbs a different summation order should the program ever adopt one.
inline constexpr double kDistanceEpsilon = 1e-9;

/// Euclidean distance by a plain double-accumulating loop: the benchmark's
/// own arithmetic, independent of the program's SIMD kernels.
double OracleDistance(std::span<const float> row, std::span<const float> query);

/// Exact k nearest neighbours of `query` among the rows of `collection`
/// whose `live` flag is set (all rows when `live` is empty), ascending by
/// (distance, id). Descriptor ids must equal row positions, which holds for
/// generated collections.
std::vector<qvt::Neighbor> BruteForceKnn(const qvt::Collection& collection,
                                         std::span<const uint8_t> live,
                                         std::span<const float> query,
                                         size_t k);

/// Brute force for many queries on up to `threads` threads. `live[i]`
/// (optional, empty = every row) is query i's live mask.
std::vector<std::vector<qvt::Neighbor>> BruteForceMany(
    const qvt::Collection& collection,
    const std::vector<std::vector<uint8_t>>& live,
    const std::vector<std::span<const float>>& queries, size_t k,
    size_t threads);

enum class AnswerMode {
  kExact,     ///< must equal the brute-force top-k up to ties
  kBudgeted,  ///< any valid answer no better than the true top-k
};

/// Checks one answer against the brute-force truth: (distance, id) order,
/// no duplicate ids, every id a live row, every distance equal to the
/// recomputed one, the expected size, and the exact or budgeted bound.
/// Returns an empty string when every property holds, else the first
/// violation.
std::string CheckAnswer(const qvt::Collection& collection,
                        std::span<const uint8_t> live,
                        std::span<const float> query,
                        std::span<const qvt::Neighbor> answer,
                        std::span<const qvt::Neighbor> truth, size_t k,
                        AnswerMode mode);

/// Share of the truth's ids present in the answer.
double RecallAt(std::span<const qvt::Neighbor> answer,
                std::span<const qvt::Neighbor> truth);

/// True when both lists hold the same ids with bit-identical distances.
bool SameNeighbors(std::span<const qvt::Neighbor> a,
                   std::span<const qvt::Neighbor> b);

}  // namespace perfbench

#endif  // QVT_PERFBENCH_ORACLE_H_
