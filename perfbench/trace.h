#ifndef QVT_PERFBENCH_TRACE_H_
#define QVT_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One timed interval at a layer boundary. `parent` indexes the enclosing
/// span in the same Tracer (-1 for a root); spans of one request share
/// `request`.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t request = 0;
};

/// Per-name totals derived from the span list: inclusive time, self time
/// (inclusive minus the time covered by direct children) and count.
struct SpanTotals {
  double inclusive_us = 0.0;
  double self_us = 0.0;
  uint64_t count = 0;
};

/// In-memory span recorder. Spans are appended as they open and closed in
/// LIFO order; nothing is written until Write() at the end of the run, so
/// recording costs two clock reads and one vector append per span.
/// `enabled == false` makes every Open/Close a no-op, which is how the
/// benchmark measures tracing overhead on the same code path.
class Tracer {
 public:
  bool enabled = false;

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void BeginRequest(uint64_t request) { request_ = request; }
  int32_t Open(const char* name);
  void Close(int32_t span);

  std::map<std::string, SpanTotals> Totals() const;
  /// Writes one JSON object per span, the first `max_spans` of them, to
  /// `path`; false on I/O failure.
  bool Write(const std::string& path, size_t max_spans) const;
  size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
  uint64_t request_ = 0;
};

/// RAII span: opens on construction, closes on destruction.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name)
      : tracer_(tracer), span_(tracer.Open(name)) {}
  ~SpanScope() { tracer_.Close(span_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tracer_;
  int32_t span_;
};

}  // namespace perfbench

#endif  // QVT_PERFBENCH_TRACE_H_
