#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

int32_t Tracer::Open(const char* name) {
  if (!enabled) return -1;
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.request = request_;
  const auto index = static_cast<int32_t>(spans_.size());
  spans_.push_back(span);
  stack_.push_back(index);
  spans_.back().start_ns = NowNs();
  return index;
}

void Tracer::Close(int32_t span) {
  if (span < 0) return;
  spans_[span].end_ns = NowNs();
  stack_.pop_back();
}

std::map<std::string, SpanTotals> Tracer::Totals() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    SpanTotals& t = totals[s.name];
    const int64_t ns = s.end_ns - s.start_ns;
    t.inclusive_us += static_cast<double>(ns) / 1e3;
    t.self_us += static_cast<double>(ns - child_ns[i]) / 1e3;
    ++t.count;
  }
  return totals;
}

bool Tracer::Write(const std::string& path, size_t max_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < std::min(spans_.size(), max_spans); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"request\":%llu}\n",
                 i, s.name, static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
