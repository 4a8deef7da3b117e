#include "speed_probe.hpp"

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <unordered_map>
#include <vector>

namespace perfbench {

namespace {

constexpr int kSliceOps = 1024;

/// The slice's fixed work; returns a value that depends on all of it.
std::uint64_t slice_work() {
  std::map<std::uint32_t, std::uint64_t> ordered;
  std::unordered_map<std::uint32_t, std::uint64_t> hashed;
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      heap;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  std::uint64_t acc = 0;
  for (int i = 0; i < kSliceOps; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const auto key = static_cast<std::uint32_t>(x >> 40);
    ordered[key % 2048] += x;
    hashed[key % 4096] ^= x;
    heap.push(x >> 8);
    if (heap.size() > 512) {
      acc += heap.top();
      heap.pop();
    }
    if (const auto it = ordered.lower_bound(key % 2047); it != ordered.end()) {
      acc += it->second;
    }
  }
  return acc + ordered.size() + hashed.size();
}

}  // namespace

void SpeedProbe::sample() {
  static volatile std::uint64_t sink = 0;
  const BenchClock::time_point t0 = BenchClock::now();
  sink = sink + slice_work();
  const BenchClock::time_point t1 = BenchClock::now();
  ++slices_;
  spent_s_ += seconds_between(t0, t1);
  next_ = t1 + std::chrono::duration_cast<BenchClock::duration>(
                   std::chrono::duration<double>(kProbeInterval));
}

}  // namespace perfbench
