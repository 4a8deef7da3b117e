// The host's speed, sampled on the benchmark's own thread while it runs.
//
// On a shared host the core this benchmark runs on changes speed by tens of
// percent for stretches of seconds to minutes (other tenants' load on the
// same physical core), so a run of fixed work reads the host's drift as a
// change of the program. A concurrent probe thread does not see it: the
// slowdown is per core. So the probe runs on the measured thread itself: a
// fixed slice of work (ordered-map, hash-map and heap operations on a
// working set of a few hundred KB, the kind of work the simulator does) at
// the first safe point after every kProbeInterval of host time. The safe
// points are between beds, between steps of a bed's run and inside long
// deploy loops. The slices are spread evenly over time, so
// their mean time tracks how slow the host was over a stretch: a bed long
// enough to hold kMinBedSlices slices is scaled by
// kReferenceSliceSeconds / (mean time of its slices), everything else in a
// pass by the same ratio over the pass. Time spent in slices is subtracted
// from every phase, bed and pass it falls in.
#pragma once

#include <cstddef>

#include "spans.hpp"

namespace perfbench {

/// Host time between two slices.
inline constexpr double kProbeInterval = 0.010;
/// Slices a bed needs for its own scale; shorter beds take their pass's.
inline constexpr std::size_t kMinBedSlices = 10;
/// One slice's typical host time on the reference machine (4-core x86-64
/// VM, Release build): the scaled times are host seconds at that speed.
inline constexpr double kReferenceSliceSeconds = 0.00043;

class SpeedProbe {
 public:
  /// Runs a slice when at least kProbeInterval has passed since the last.
  void tick() {
    if (BenchClock::now() >= next_) sample();
  }
  /// Runs a slice now.
  void sample();

  /// Slices run so far, and the host seconds they took in total.
  [[nodiscard]] std::size_t slices() const { return slices_; }
  [[nodiscard]] double spent_s() const { return spent_s_; }

 private:
  BenchClock::time_point next_{};
  std::size_t slices_ = 0;
  double spent_s_ = 0.0;
};

/// kReferenceSliceSeconds over the mean of `slices` slices that took
/// `spent_s` in total.
[[nodiscard]] inline double speed_scale(std::size_t slices, double spent_s) {
  return kReferenceSliceSeconds * static_cast<double>(slices) / spent_s;
}

/// Host seconds the probe spent since it read `from` (0 without a probe).
[[nodiscard]] inline double probe_since(const SpeedProbe* probe, double from) {
  return probe == nullptr ? 0.0 : probe->spent_s() - from;
}
[[nodiscard]] inline double probe_mark(const SpeedProbe* probe) {
  return probe == nullptr ? 0.0 : probe->spent_s();
}

}  // namespace perfbench
