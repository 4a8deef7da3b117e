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
//   - RecoveringController: the one recovery state machine. P4Update,
//     ez-Segway and Central derive from it and supply only the steps in
//     which the systems really differ (DESIGN.md §9).
//
// Recovery is opt-in (enabled = false keeps historical behavior bit-exact):
// fault-free benches must not pay for timers they never need.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "control/flow_db.hpp"
#include "control/nib.hpp"
#include "net/graph.hpp"
#include "net/paths.hpp"
#include "p4rt/control_channel.hpp"
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

/// The controller side every system shares: NIB, Flow DB, issued paths, the
/// health belief, and the recovery state machine over them (completion
/// timers with backoff, the give-up settle, repair around dead elements,
/// reissue and redeploy after an element returns). Subclasses supply the
/// per-system steps through the hooks below; everything else — and so the
/// recovery policy the chaos campaign compares — is this one class.
class RecoveringController : public p4rt::ControllerApp {
 public:
  // The channel and the armed timers hold `this`.
  RecoveringController(const RecoveringController&) = delete;
  RecoveringController& operator=(const RecoveringController&) = delete;

  /// Issues (or, for ez-Segway, queues) an update moving `flow` onto
  /// `new_path`; returns the version used (0 when none was issued).
  virtual p4rt::Version schedule_update(net::FlowId flow,
                                        const net::Path& new_path) = 0;

  // Failure detection (ControlChannel): updates the health view and — when
  // recovery is enabled — repairs around dead elements / re-deploys after
  // restarts.
  void handle_link_state(net::LinkId link, net::NodeId a, net::NodeId b,
                         bool up) final;
  void handle_switch_state(net::NodeId node, bool up) final;

  [[nodiscard]] control::Nib& nib() noexcept { return nib_; }
  [[nodiscard]] control::FlowDb& flow_db() noexcept { return flow_db_; }

  /// Invoked whenever an issued update reaches a terminal outcome:
  /// kCompleted on confirmation, kRolledBack / kAbandoned when recovery
  /// gave up. Fired after all controller state for the version was updated,
  /// so a handler may synchronously schedule the flow's next update (the
  /// admission queue does).
  std::function<void(net::FlowId, p4rt::Version, control::UpdateOutcome,
                     sim::Time)>
      on_settled;

 protected:
  /// Registers with the channel as its application.
  RecoveringController(p4rt::ControlChannel& channel, control::Nib nib,
                       const RecoveryParams& recovery);

  // --- per-system steps ---
  /// The completion timer expired with retries left: resend the update.
  virtual void resend_update(net::FlowId flow, p4rt::Version version) = 0;
  /// True when the timer's version is no longer the one in flight (the
  /// timer is then dropped without a resend or a settle). Default: never.
  [[nodiscard]] virtual bool retry_stale(net::FlowId /*flow*/,
                                         p4rt::Version /*version*/) const {
    return false;
  }
  /// Drops the system's in-flight bookkeeping for (flow, version). With
  /// `superseded` a repair update is about to replace it; otherwise the
  /// version is about to settle without completing. Default: nothing.
  virtual void drop_inflight(net::FlowId /*flow*/, p4rt::Version /*version*/,
                             bool /*superseded*/) {}
  /// `restarted` came back with its rules wiped while it sits on the idle
  /// flow's believed path: re-install that path.
  virtual void redeploy(net::FlowId flow, net::NodeId restarted) = 0;
  /// Runs after a give-up settle (`settled` = its flow) and after a repair
  /// scan (`settled` empty). Default: nothing.
  virtual void after_recovery(std::optional<net::FlowId> /*settled*/) {}

  // --- the shared state machine ---
  /// Arms the completion timer for a freshly issued version (recovery on).
  void track_update(net::FlowId flow, p4rt::Version version);
  /// Disarms the flow's completion timer, whatever version it tracks.
  void untrack(net::FlowId flow) { retry_.erase(flow); }
  /// (flow, version) was confirmed: record it, believe its issued path,
  /// disarm its timer and fire on_settled.
  void complete_update(net::FlowId flow, p4rt::Version version);

  p4rt::ControlChannel& channel_;
  control::Nib nib_;
  control::FlowDb flow_db_;
  std::map<std::pair<net::FlowId, p4rt::Version>, net::Path> issued_paths_;

 private:
  /// One live completion timer per flow; a new version supersedes the old
  /// timer via the generation counter.
  struct RetryState {
    p4rt::Version version = 0;
    int attempts = 0;
    std::uint64_t gen = 0;
  };
  void arm_retry_timer(net::FlowId flow);
  void on_retry_timer(net::FlowId flow, std::uint64_t gen);
  /// Retries exhausted: settle at kRolledBack (old path believed healthy)
  /// or kAbandoned, and stop tracking.
  void settle_update(net::FlowId flow, p4rt::Version version);
  /// Records the terminal outcome of an uncompleted version and fires
  /// on_settled.
  void give_up(net::FlowId flow, p4rt::Version version,
               control::UpdateOutcome outcome);
  /// A believed-dead element took out paths: supersede affected in-flight
  /// updates and reroute affected idle flows. `hits(path)` says whether a
  /// path crosses the element.
  void repair_around(const std::function<bool(const net::Path&)>& hits);
  /// A restarted element came back: re-issue updates that settled without
  /// completing, and re-deploy believed paths across a restarted switch
  /// (its Table 1 registers and rules were wiped).
  void reissue_after_recovery(std::optional<net::NodeId> restarted);

  RecoveryParams recovery_;
  HealthView health_;
  std::map<net::FlowId, RetryState> retry_;
  std::uint64_t retry_gen_ = 0;
};

}  // namespace p4u::faults
