// Controller-side recovery: the shared pieces every controller (P4Update,
// ez-Segway, Central) uses to survive the failure domain.
//
//   - RecoveryParams: per-update completion timers with exponential backoff
//     and a retry cap. A controller that issued an update arms a timer; on
//     expiry it resends the update messages; once the cap is exhausted it
//     settles the update at a terminal outcome (rolled back when the old
//     path still carries traffic, abandoned when it cannot).
//   - HealthView: the controller's belief about dead links and crashed
//     switches, fed by the control channel's failure notifications. Answers
//     "is this path still viable?" and "find me a repair path around the
//     faults" — the re-segmentation query.
//
// Recovery is opt-in (enabled = false keeps historical behavior bit-exact):
// fault-free benches must not pay for timers they never need.
#pragma once

#include <set>
#include <vector>

#include "net/graph.hpp"
#include "net/paths.hpp"
#include "sim/time.hpp"

namespace p4u::faults {

struct RecoveryParams {
  /// Master switch; everything below is inert when false.
  bool enabled = false;
  /// First completion timeout after issuing an update.
  sim::Duration initial_timeout = sim::milliseconds(200);
  /// Timeout multiplier per retry (attempt k waits initial * backoff^k).
  double backoff = 2.0;
  /// Resend attempts before settling at a terminal outcome.
  int max_retries = 4;

  /// Timeout for retry `attempt` (0-based), with saturation: the knobs are
  /// user input and must not overflow into the past.
  [[nodiscard]] sim::Duration timeout_for(int attempt) const;
};

/// Dead-element belief. Deliberately a *belief*: it tracks what the
/// controller has been told, which trails reality by the detection latency.
class HealthView {
 public:
  void link_down(net::LinkId l) { down_links_.insert(l); }
  void link_up(net::LinkId l) { down_links_.erase(l); }
  void switch_down(net::NodeId n) { down_nodes_.insert(n); }
  void switch_up(net::NodeId n) { down_nodes_.erase(n); }

  [[nodiscard]] bool link_ok(net::LinkId l) const {
    return down_links_.count(l) == 0;
  }
  [[nodiscard]] bool node_ok(net::NodeId n) const {
    return down_nodes_.count(n) == 0;
  }

  /// True when every node and every hop of `path` is believed alive.
  [[nodiscard]] bool path_ok(const net::Graph& g, const net::Path& path) const;

  /// True when `path` traverses the given element (node `n`, or the link
  /// between `a` and `b`).
  [[nodiscard]] static bool path_uses_node(const net::Path& path,
                                           net::NodeId n);
  [[nodiscard]] static bool path_uses_link(const net::Graph& g,
                                           const net::Path& path,
                                           net::LinkId l);

  /// Shortest path src -> dst through believed-healthy elements only;
  /// nullopt when the faults disconnect the pair (the Abandoned case).
  [[nodiscard]] std::optional<net::Path> repair_path(
      const net::Graph& g, net::NodeId src, net::NodeId dst) const;

 private:
  // Ordered sets: recovery scans iterate these, and iteration order must be
  // deterministic (determinism contract).
  std::set<net::LinkId> down_links_;
  std::set<net::NodeId> down_nodes_;
};

}  // namespace p4u::faults
