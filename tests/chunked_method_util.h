#ifndef QVT_TESTS_CHUNKED_METHOD_UTIL_H_
#define QVT_TESTS_CHUNKED_METHOD_UTIL_H_

#include <memory>

#include "core/search_method.h"
#include "util/logging.h"

namespace qvt {

/// The registry's "chunked" method over `index`, Prepare()d: the way every
/// caller drives the §4.3 searcher through BatchSearcher and the bench
/// runner. Aborts the test binary on failure (a fixture error).
inline std::unique_ptr<SearchMethod> MakeChunkedMethod(
    const ChunkIndex* index, ChunkCache* cache = nullptr,
    PrefetcherOptions prefetch = {},
    const DiskCostModel& cost_model = DiskCostModel()) {
  MethodContext context;
  context.index = index;
  context.cache = cache;
  context.prefetch = prefetch;
  context.cost_model = cost_model;
  auto method = MethodRegistry::Global().Create("chunked", context);
  QVT_CHECK_OK(method.status());
  QVT_CHECK_OK((*method)->Prepare());
  return std::move(method).value();
}

}  // namespace qvt

#endif  // QVT_TESTS_CHUNKED_METHOD_UTIL_H_
