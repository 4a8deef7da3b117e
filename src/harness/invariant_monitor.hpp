// InvariantMonitor: the oracle that checks the paper's three consistency
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
//
// Cost model (DESIGN.md, "Key invariants"): an attached monitor checks a
// watched install at switch u in O(path), not O(switches). A rule write at u
// changes only u's out-edge, so any cycle it creates passes through u; rule
// removals and crashes only delete edges, so a known cycle can break
// silently but never appear unseen. The monitor keeps one anchor node per
// live cycle of each watched flow, re-validates the anchors on every check
// and walks from u for a new one. The anchors are seeded by one full scan
// at the flow's first check. Explicit check_flow/check_all and the has_loop
// predicate stay full scans (and re-seed the anchors).
#pragma once

#include <set>
#include <string>
#include <vector>

#include "net/flow.hpp"
#include "net/flow_index.hpp"
#include "p4rt/fabric.hpp"
#include "p4rt/fabric_observer.hpp"

namespace p4u::harness {

class InvariantMonitor : public p4rt::FabricObserver {
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

  explicit InvariantMonitor(p4rt::Fabric& fabric, bool check_capacity = false)
      : fabric_(&fabric),
        check_capacity_(check_capacity),
        stamp_(fabric.switch_count(), 0) {}

  /// Declares a flow the monitor should watch (its ingress anchors the
  /// blackhole walk; its size feeds the capacity sums).
  void watch_flow(const net::Flow& f);

  /// Subscribes to the fabric (rule installs trigger checks; fault events
  /// mark affected flows excused). Idempotent per monitor instance.
  void attach();

  /// Runs all checks for one flow right now; increments counters and logs
  /// trace entries for anything found. The loop check is a full scan that
  /// re-seeds the flow's cycle anchors.
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

  /// The watched flow `flow`, or nullptr when it is not watched.
  [[nodiscard]] const net::Flow* watched(net::FlowId flow) const;

  /// Watched flow ids in ascending order. All iteration over the watched
  /// set goes through this so findings, trace entries, and float
  /// accumulations are independent of insertion order. Sorted lazily, only
  /// after the watch set gained an out-of-order id.
  [[nodiscard]] const std::vector<net::FlowId>& watched_ids() const;

  // Direct predicates (used by tests). has_loop scans every switch.
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
  /// A watched flow plus its incremental loop state.
  struct Watched {
    net::Flow flow;
    /// False until the first full scan after watch_flow (or attach): only
    /// then do the anchors cover every cycle, stale unreachable ones too.
    bool seeded = false;
    /// One node on each live cycle of the flow's forwarding graph.
    std::vector<net::NodeId> anchors;
  };

  /// How a walk from the flow ingress along installed rules ends.
  enum class WalkEnd {
    kDelivered,  // reached a kLocalPort rule
    kBlackhole,  // reached a rule-less switch or a dangling port
    kLoop,       // revisited a node
    kFaulted,    // hit a crashed switch or a downed link
  };

  /// The one ingress walk behind every check, has_blackhole and the fault
  /// handlers. With `faults` set a crashed switch or downed link ends it as
  /// kFaulted; `trail`, when given, receives the visited nodes in order
  /// (the pre-fault path when called from a state-change notification,
  /// which fires before the fabric applies the effect).
  WalkEnd walk(const net::Flow& f, bool faults,
               std::vector<net::NodeId>* trail = nullptr) const;

  /// Successor of `node` in the flow's forwarding graph; kNoNode when the
  /// rule is missing, delivers locally or points at no neighbour.
  [[nodiscard]] net::NodeId next_hop(net::NodeId node,
                                     net::FlowId flow) const;
  /// Full scan of every switch: one anchor per cycle.
  [[nodiscard]] std::vector<net::NodeId> scan_cycles(net::FlowId flow) const;
  /// True when walking from `start` returns to `start`. On true the cycle's
  /// nodes (and only they) carry the current epoch stamp.
  [[nodiscard]] bool on_cycle(net::NodeId start, net::FlowId flow) const;
  /// Loop verdict after a rule install at `node`, in O(path + known cycles).
  bool loop_after_install(Watched& w, net::NodeId node);
  /// Reserves `k` fresh visit epochs and returns the first.
  std::uint32_t fresh_epochs(std::uint32_t k) const;

  [[nodiscard]] Watched* find_watched(net::FlowId flow);
  [[nodiscard]] const Watched* find_watched(net::FlowId flow) const;

  /// Counts and logs one check's verdicts (loop, ingress walk, capacity).
  void report(net::FlowId flow, bool loop);

  p4rt::Fabric* fabric_;
  bool check_capacity_;
  net::FlowIndex index_;
  net::FlowPool<Watched> watched_;
  mutable std::vector<net::FlowId> ids_;
  mutable bool ids_sorted_ = true;
  /// Epoch-stamped visited marks, one per switch: a walk owns an epoch and
  /// stamps the nodes it visits, so no walk allocates or clears a set.
  mutable std::vector<std::uint32_t> stamp_;
  mutable std::uint32_t epoch_ = 0;
  Violations violations_;
  std::vector<std::string> findings_;
  /// Flows whose path a live fault broke; cleared by the next clean walk.
  std::set<net::FlowId> excused_;
  p4rt::ObserverHandle handle_;
};

}  // namespace p4u::harness
