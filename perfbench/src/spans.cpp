#include "spans.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

SpanId SpanLog::open(const char* name, SpanId parent, std::string label) {
  Span s;
  s.parent = parent;
  s.name = name;
  s.label = std::move(label);
  s.start = BenchClock::now();
  s.end = s.start;
  spans_.push_back(std::move(s));
  return static_cast<SpanId>(spans_.size());
}

double SpanLog::close(SpanId id) {
  if (id == 0 || id > spans_.size()) {
    throw std::logic_error("SpanLog::close: unknown span id");
  }
  Span& s = spans_[id - 1];
  s.end = BenchClock::now();
  return seconds_between(s.start, s.end);
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const BenchClock::time_point t0 =
      spans_.empty() ? BenchClock::time_point{} : spans_.front().start;
  const auto us = [t0](BenchClock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - t0).count();
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Labels are built by the benchmark from cell slugs, system names and
    // seeds: no character in them needs JSON escaping.
    std::fprintf(f,
                 "{\"id\": %zu, \"parent\": %u, \"name\": \"%s\", "
                 "\"label\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f}\n",
                 i + 1, s.parent, s.name, s.label.c_str(), us(s.start),
                 us(s.end));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
