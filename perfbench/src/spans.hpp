// Host-time spans recorded around the benchmark's calls into each layer.
//
// A span has a name, a parent (0 = root), a label (the bed's cell, system
// and seed) and a [start, end) interval on the host's steady clock. Spans
// are kept in memory and written out once, when the run ends, so recording
// costs two clock reads and one vector push per span.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// p4u-detlint: allow(wall-clock) benchmark instrumentation: host time is the measurand; it never feeds a simulation or a campaign report
using BenchClock = std::chrono::steady_clock;

/// Seconds between two host-clock readings.
[[nodiscard]] inline double seconds_between(BenchClock::time_point from,
                                            BenchClock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

using SpanId = std::uint32_t;

class SpanLog {
 public:
  struct Span {
    SpanId parent = 0;
    const char* name = "";
    std::string label;
    BenchClock::time_point start;
    BenchClock::time_point end;
  };

  /// Opens a span now; returns its id (1-based).
  SpanId open(const char* name, SpanId parent, std::string label = {});
  /// Closes span `id` now and returns its duration in seconds.
  double close(SpanId id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Drops every span; ids restart at 1. No span may be open.
  void clear() { spans_.clear(); }

  /// Writes one JSON object per span (id, parent, name, label, start and
  /// end in microseconds since the first span). Returns false when the
  /// file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Closes its span when it goes out of scope, unless closed explicitly.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, SpanId parent,
             std::string label = {})
      : log_(&log), id_(log.open(name, parent, std::move(label))) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(id_);
  }

  [[nodiscard]] SpanId id() const { return id_; }

  /// Closes the span now and returns its duration in seconds.
  double close() {
    const double s = log_->close(id_);
    log_ = nullptr;
    return s;
  }

 private:
  SpanLog* log_;
  SpanId id_;
};

}  // namespace perfbench
