// Order statistics for the benchmark's reports: exact, never interpolated,
// and never averaged across seeds or passes (the p999-below-p99 trap of
// averaging per-seed estimates).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "sim/stats.hpp"

namespace perfbench {

/// Nearest-rank order statistic: the smallest sample with at least a share
/// q of the samples at or below it. `s` must not be empty.
inline double order_statistic(const p4u::sim::Samples& s, double q) {
  const std::vector<double>& xs = s.sorted();
  const auto n = static_cast<double>(xs.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, xs.size());
  return xs[rank - 1];
}

/// The highest percentile with at least ten samples beyond it.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;  // of `n` samples
  std::size_t n = 0;
};

inline Tail tail_of(const p4u::sim::Samples& s) {
  const std::vector<double>& xs = s.sorted();
  Tail t;
  t.n = xs.size();
  if (xs.empty()) return t;
  // x[k] has n-1-k samples beyond it; below 11 samples no percentile has
  // ten beyond it, and the maximum stands in.
  const std::size_t k = xs.size() >= 11 ? xs.size() - 11 : xs.size() - 1;
  t.value = xs[k];
  t.percentile =
      100.0 * static_cast<double>(k + 1) / static_cast<double>(xs.size());
  return t;
}

/// Beds a group holds before its tail is taken.
inline constexpr std::size_t kTailGroupBeds = 100;

/// The median of the groups' tails (tail_of each group); percentile and n
/// are the first group's. A host-time tail taken over all of a run's beds
/// at once is its few worst beds, i.e. wherever the host slowed down most;
/// a median over groups is not moved by one slow stretch. `groups` must not
/// be empty.
inline Tail median_tail(const std::vector<p4u::sim::Samples>& groups) {
  p4u::sim::Samples tails;
  for (const p4u::sim::Samples& g : groups) tails.add(tail_of(g).value);
  Tail t = tail_of(groups.front());
  t.value = tails.median();
  return t;
}

}  // namespace perfbench
