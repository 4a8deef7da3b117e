// ReferenceMonitor: the brute-force invariant oracle, kept as the
// differential reference for harness::InvariantMonitor. It is a verbatim
// copy of the monitor before the incremental loop check: `has_loop` colours
// every switch on every check, and every walk keeps a std::set of visited
// nodes. Do not optimise it — its value is that it is obviously correct.
// monitor_differential_property_test.cpp runs both on the same bed and
// asserts identical counters and findings.
//
// Original description:
//
// The oracle that checks the paper's three consistency
// properties (§5) against the *actual* data-plane state after every rule
// change:
//   - loop freedom: the per-flow forwarding graph is acyclic,
//   - blackhole freedom: walking from the flow ingress always reaches a
//     rule, ending at local delivery,
//   - congestion freedom: per directed link, the flow size bounds of rules
//     routed over it never exceed capacity.
// The systems under test never see the monitor — it reads switch tables the
// way an omniscient observer would.
//
// Under a FaultPlan the oracle distinguishes *violations* (the update system
// broke an invariant) from *faulted walks* (the physical fault broke the
// path): a flow whose walk crossed a downed link or crashed switch is
// excused while the fault bites, and a broken walk counts as faulted, not as
// a blackhole violation. Loops are never excused — no fault creates one; the
// update logic does.
#pragma once

#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/flow.hpp"
#include "p4rt/fabric.hpp"
#include "p4rt/fabric_observer.hpp"

namespace p4u::harness {

class ReferenceMonitor : public p4rt::FabricObserver {
 public:
  struct Violations {
    std::uint64_t loops = 0;
    std::uint64_t blackholes = 0;
    std::uint64_t capacity = 0;
    /// Walks that broke because of a live fault (excused; not a violation).
    std::uint64_t faulted_walks = 0;
    [[nodiscard]] std::uint64_t total() const {
      return loops + blackholes + capacity;
    }
  };

  explicit ReferenceMonitor(p4rt::Fabric& fabric, bool check_capacity = false)
      : fabric_(&fabric), check_capacity_(check_capacity) {}

  /// Declares a flow the monitor should watch (its ingress anchors the
  /// blackhole walk; its size feeds the capacity sums).
  void watch_flow(const net::Flow& f) { flows_[f.id] = f; }

  /// Subscribes to the fabric (rule installs trigger checks; fault events
  /// mark affected flows excused). Idempotent per monitor instance.
  void attach();

  /// Runs all checks for one flow right now; increments counters and logs
  /// trace entries for anything found.
  void check_flow(net::FlowId flow);

  /// Runs all checks for all watched flows.
  void check_all();

  [[nodiscard]] const Violations& violations() const { return violations_; }
  [[nodiscard]] const std::vector<std::string>& findings() const {
    return findings_;
  }

  /// Tops up "monitor.violation"{kind=loop|blackhole|capacity} plus
  /// "monitor.faulted_walks" to the current totals, so every run report
  /// attributes explorer/chaos failures per invariant without reading
  /// traces. Zero cells are exported too: a clean run visibly reports
  /// zeroes rather than omitting the family. Idempotent (top-up pattern,
  /// like FlowDb::export_outcomes).
  void export_violations(obs::MetricsRegistry& m) const;

  // Direct predicates (used by tests).
  [[nodiscard]] bool has_loop(net::FlowId flow) const;
  [[nodiscard]] bool has_blackhole(net::FlowId flow) const;
  [[nodiscard]] std::vector<std::string> capacity_overloads() const;

  // FabricObserver:
  void on_rule_installed(net::NodeId node, net::FlowId flow,
                         std::int32_t port) override;
  void on_link_state(net::LinkId link, net::NodeId a, net::NodeId b,
                     bool up) override;
  void on_switch_state(net::NodeId node, bool up) override;

 private:
  /// How a walk from the flow ingress along installed rules ends.
  enum class WalkEnd {
    kDelivered,  // reached a kLocalPort rule
    kBlackhole,  // reached a rule-less switch or a dangling port
    kLoop,       // revisited a node
    kFaulted,    // hit a crashed switch or a downed link
  };
  WalkEnd walk_flow(net::FlowId flow) const;

  /// The node sequence of the flow's current walk (pre-fault when called
  /// from a state-change notification, which fires before the fabric
  /// applies the effect).
  [[nodiscard]] std::vector<net::NodeId> walk_nodes(net::FlowId flow) const;

  /// Watched flow ids in ascending order. All iteration over the watched
  /// set goes through this so findings, trace entries, and float
  /// accumulations are independent of hash order.
  [[nodiscard]] std::vector<net::FlowId> watched_ids_sorted() const;

  p4rt::Fabric* fabric_;
  bool check_capacity_;
  std::unordered_map<net::FlowId, net::Flow> flows_;
  Violations violations_;
  std::vector<std::string> findings_;
  /// Flows whose path a live fault broke; cleared by the next clean walk.
  std::set<net::FlowId> excused_;
  p4rt::ObserverHandle handle_;
};

}  // namespace p4u::harness
