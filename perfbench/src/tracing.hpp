// Traced-run instruments, attached to a bed from outside the program.
//
// ClassClock is a sim::ScheduleStrategy that always picks index 0 (the
// historical (at, seq) order) and delegates coin/jitter to a
// SeededStrategy, so a traced bed runs the byte-identical schedule of an
// untraced one (the golden-trace regression pins SeededStrategy to the fast
// path). It charges the host time between consecutive pick() calls to the
// class of the event picked first: one handler plus the pop of the next
// event.
//
// ShadowMonitor is a second harness::InvariantMonitor behind a timing
// observer. It watches the same flows with the same capacity flag as the
// bed's own monitor, so its host time estimates the oracle's cost. It walks
// state the bed's monitor has just pulled into cache, so the estimate reads
// low. ClassClock subtracts the shadow's time from the event class it ran
// inside, so class times stay those of an untraced bed.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "harness/invariant_monitor.hpp"
#include "net/flow.hpp"
#include "p4rt/fabric.hpp"
#include "p4rt/fabric_observer.hpp"
#include "sim/schedule_strategy.hpp"
#include "spans.hpp"

namespace perfbench {

/// Number of sim::EventClass values (kInternal .. kScenario).
inline constexpr std::size_t kEventClasses = 8;

class ShadowMonitor final : public p4u::p4rt::FabricObserver {
 public:
  ShadowMonitor(p4u::p4rt::Fabric& fabric, bool check_capacity)
      : monitor_(fabric, check_capacity) {}
  ShadowMonitor(const ShadowMonitor&) = delete;
  ShadowMonitor& operator=(const ShadowMonitor&) = delete;

  void watch_flow(const p4u::net::Flow& f) { monitor_.watch_flow(f); }
  /// Subscribes to the fabric (after the bed's monitor, so the bed's walk
  /// runs first on every notification).
  void attach(p4u::p4rt::Fabric& fabric) { handle_ = fabric.subscribe(this); }

  [[nodiscard]] const p4u::harness::InvariantMonitor::Violations& violations()
      const {
    return monitor_.violations();
  }
  [[nodiscard]] std::uint64_t calls() const { return calls_; }
  [[nodiscard]] BenchClock::duration busy() const { return busy_; }

  void on_rule_installed(p4u::net::NodeId node, p4u::net::FlowId flow,
                         std::int32_t port) override;
  void on_link_state(p4u::net::LinkId link, p4u::net::NodeId a,
                     p4u::net::NodeId b, bool up) override;
  void on_switch_state(p4u::net::NodeId node, bool up) override;

 private:
  template <typename F>
  void timed(F&& f) {
    const auto t0 = BenchClock::now();
    f();
    busy_ += BenchClock::now() - t0;
    ++calls_;
  }

  p4u::harness::InvariantMonitor monitor_;
  std::uint64_t calls_ = 0;
  BenchClock::duration busy_{};
  p4u::p4rt::ObserverHandle handle_;
};

class ClassClock final : public p4u::sim::ScheduleStrategy {
 public:
  /// The monitor whose time is not charged to event classes (null: none).
  /// It must outlive every begin()/end() bracket.
  void set_shadow(const ShadowMonitor* shadow) { shadow_ = shadow; }

  /// Brackets one TestBed::run: time outside the bracket is not charged.
  void begin();
  void end();

  std::size_t pick(const std::vector<p4u::sim::ChoiceOption>& options) override;
  bool coin(const p4u::sim::CoinPoint& cp, p4u::sim::Rng& rng) override;
  p4u::sim::Duration jitter(const p4u::sim::CoinPoint& cp,
                            p4u::sim::Duration max_extra,
                            p4u::sim::Rng& rng) override;

  [[nodiscard]] const std::array<std::uint64_t, kEventClasses>& events() const {
    return events_;
  }
  [[nodiscard]] const std::array<BenchClock::duration, kEventClasses>& busy()
      const {
    return busy_;
  }

 private:
  void charge(BenchClock::time_point now);

  static constexpr std::size_t kNone = kEventClasses;
  const ShadowMonitor* shadow_ = nullptr;
  p4u::sim::SeededStrategy seeded_;
  std::size_t current_ = kNone;
  BenchClock::time_point last_{};
  BenchClock::duration shadow_seen_{};
  std::array<std::uint64_t, kEventClasses> events_{};
  std::array<BenchClock::duration, kEventClasses> busy_{};
};

}  // namespace perfbench
