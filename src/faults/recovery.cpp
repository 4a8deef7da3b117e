#include "faults/recovery.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"

namespace p4u::faults {

sim::Duration RecoveryParams::timeout_for(int attempt) const {
  double t = static_cast<double>(initial_timeout);
  for (int i = 0; i < attempt; ++i) {
    t *= backoff;
    if (t >= static_cast<double>(sim::kTimeInfinity)) {
      return sim::kTimeInfinity;
    }
  }
  return static_cast<sim::Duration>(t);
}

bool HealthView::path_ok(const net::Graph& g, const net::Path& path) const {
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (!node_ok(path[i])) return false;
    if (i + 1 < path.size()) {
      const auto l = g.find_link(path[i], path[i + 1]);
      if (!l || !link_ok(*l)) return false;
    }
  }
  return true;
}

bool HealthView::path_uses_node(const net::Path& path, net::NodeId n) {
  return std::find(path.begin(), path.end(), n) != path.end();
}

bool HealthView::path_uses_link(const net::Graph& g, const net::Path& path,
                                net::LinkId l) {
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const auto hop = g.find_link(path[i], path[i + 1]);
    if (hop && *hop == l) return true;
  }
  return false;
}

std::optional<net::Path> HealthView::repair_path(const net::Graph& g,
                                                 net::NodeId src,
                                                 net::NodeId dst) const {
  const std::vector<net::LinkId> links(down_links_.begin(), down_links_.end());
  const std::vector<net::NodeId> nodes(down_nodes_.begin(), down_nodes_.end());
  return net::shortest_path_avoiding_elements(g, src, dst, links, nodes);
}

// --- RecoveringController ---

RecoveringController::RecoveringController(p4rt::ControlChannel& channel,
                                           control::Nib nib,
                                           const RecoveryParams& recovery)
    : channel_(channel), nib_(std::move(nib)), recovery_(recovery) {
  channel_.set_app(this);
}

void RecoveringController::track_update(net::FlowId flow,
                                        p4rt::Version version) {
  if (!recovery_.enabled) return;
  retry_[flow] = RetryState{version, 0, ++retry_gen_};
  arm_retry_timer(flow);
}

void RecoveringController::complete_update(net::FlowId flow,
                                           p4rt::Version version) {
  flow_db_.on_completed(flow, version, channel_.now());
  const auto it = issued_paths_.find({flow, version});
  if (it != issued_paths_.end()) nib_.believe_path(flow, it->second);
  nib_.view(flow).update_in_progress = false;
  // Completion disarms the recovery timer (a timer for a newer version
  // stays armed: its RetryState carries that version).
  const auto rit = retry_.find(flow);
  if (rit != retry_.end() && rit->second.version == version) {
    retry_.erase(rit);
  }
  if (on_settled) {
    on_settled(flow, version, control::UpdateOutcome::kCompleted,
               channel_.now());
  }
}

void RecoveringController::arm_retry_timer(net::FlowId flow) {
  const RetryState& rs = retry_.at(flow);
  channel_.simulator().schedule_in(
      recovery_.timeout_for(rs.attempts),
      [this, flow, gen = rs.gen]() { on_retry_timer(flow, gen); });
}

void RecoveringController::on_retry_timer(net::FlowId flow,
                                          std::uint64_t gen) {
  auto it = retry_.find(flow);
  if (it == retry_.end() || it->second.gen != gen) return;  // superseded
  RetryState& rs = it->second;
  if (retry_stale(flow, rs.version)) {
    retry_.erase(it);
    return;
  }
  if (rs.attempts >= recovery_.max_retries) {
    settle_update(flow, rs.version);
    return;
  }
  ++rs.attempts;
  rs.gen = ++retry_gen_;  // the re-armed timer below owns the entry now
  channel_.metrics().counter("ctrl.recovery_resends", {}).inc();
  resend_update(flow, rs.version);
  arm_retry_timer(flow);
}

void RecoveringController::settle_update(net::FlowId flow,
                                         p4rt::Version version) {
  drop_inflight(flow, version, /*superseded=*/false);
  // Rolled back when the previously installed path is believed healthy
  // (traffic keeps flowing on it); abandoned when even that path is dead.
  const bool old_ok =
      health_.path_ok(nib_.graph(), nib_.view(flow).believed_path);
  give_up(flow, version,
          old_ok ? control::UpdateOutcome::kRolledBack
                 : control::UpdateOutcome::kAbandoned);
  after_recovery(flow);
}

void RecoveringController::give_up(net::FlowId flow, p4rt::Version version,
                                   control::UpdateOutcome outcome) {
  flow_db_.on_gave_up(flow, version, outcome, channel_.now());
  channel_.metrics()
      .counter("ctrl.recovery_gaveup",
               {{"outcome", control::to_string(outcome)}})
      .inc();
  nib_.view(flow).update_in_progress = false;
  retry_.erase(flow);
  if (on_settled) on_settled(flow, version, outcome, channel_.now());
}

void RecoveringController::handle_link_state(net::LinkId link, net::NodeId a,
                                             net::NodeId b, bool up) {
  (void)a;
  (void)b;
  if (up) {
    health_.link_up(link);
  } else {
    health_.link_down(link);
  }
  if (!recovery_.enabled) return;
  if (!up) {
    const net::Graph& g = nib_.graph();
    repair_around([&g, link](const net::Path& p) {
      return HealthView::path_uses_link(g, p, link);
    });
  } else {
    reissue_after_recovery(std::nullopt);
  }
}

void RecoveringController::handle_switch_state(net::NodeId node, bool up) {
  if (up) {
    health_.switch_up(node);
  } else {
    health_.switch_down(node);
  }
  if (!recovery_.enabled) return;
  if (!up) {
    repair_around([node](const net::Path& p) {
      return HealthView::path_uses_node(p, node);
    });
  } else {
    reissue_after_recovery(node);
  }
}

void RecoveringController::repair_around(
    const std::function<bool(const net::Path&)>& hits) {
  const net::Graph& g = nib_.graph();
  for (const net::FlowId flow : nib_.sorted_flow_ids()) {
    const control::FlowView& view = nib_.view(flow);
    if (view.update_in_progress) {
      // Repair only when the update's *target* crosses the dead element;
      // an update moving away from it is already the repair.
      const auto rit = retry_.find(flow);
      const p4rt::Version doomed =
          rit != retry_.end() ? rit->second.version : view.version;
      const auto pit = issued_paths_.find({flow, doomed});
      if (pit == issued_paths_.end() || !hits(pit->second)) continue;
      const auto repair =
          health_.repair_path(g, view.flow.ingress, view.flow.egress);
      drop_inflight(flow, doomed, /*superseded=*/repair.has_value());
      if (repair) {
        channel_.metrics().counter("ctrl.recovery_repairs", {}).inc();
        // Supersedes the doomed version (its record leaves the terminality
        // denominator; the repair's own timer takes over liveness).
        schedule_update(flow, *repair);
      } else {
        // Disconnected by the faults: the in-flight update settles now.
        give_up(flow, doomed, control::UpdateOutcome::kAbandoned);
      }
      continue;
    }
    if (!hits(view.believed_path)) continue;
    const auto repair =
        health_.repair_path(g, view.flow.ingress, view.flow.egress);
    if (repair) {
      channel_.metrics().counter("ctrl.recovery_repairs", {}).inc();
      schedule_update(flow, *repair);
    } else {
      // An idle flow keeps its (dead) config until an element returns.
      channel_.metrics().counter("ctrl.recovery_stranded", {}).inc();
    }
  }
  after_recovery(std::nullopt);
}

void RecoveringController::reissue_after_recovery(
    std::optional<net::NodeId> restarted) {
  const net::Graph& g = nib_.graph();
  for (const net::FlowId flow : nib_.sorted_flow_ids()) {
    const control::FlowView& view = nib_.view(flow);
    if (view.update_in_progress) continue;  // a live timer owns this flow
    const auto& hist = flow_db_.history(flow);
    const bool settled_short =
        !hist.empty() &&
        (hist.back().outcome == control::UpdateOutcome::kRolledBack ||
         hist.back().outcome == control::UpdateOutcome::kAbandoned);
    if (settled_short) {
      // First choice: the update we actually wanted, if it is viable now.
      const auto pit = issued_paths_.find({flow, hist.back().version});
      if (pit != issued_paths_.end() && health_.path_ok(g, pit->second)) {
        channel_.metrics().counter("ctrl.recovery_reissues", {}).inc();
        schedule_update(flow, pit->second);
        continue;
      }
      // Otherwise get the flow off a still-dead installed path if possible.
      if (!health_.path_ok(g, view.believed_path)) {
        const auto repair =
            health_.repair_path(g, view.flow.ingress, view.flow.egress);
        if (repair) {
          channel_.metrics().counter("ctrl.recovery_repairs", {}).inc();
          schedule_update(flow, *repair);
          continue;
        }
      }
    }
    if (restarted &&
        HealthView::path_uses_node(view.believed_path, *restarted)) {
      channel_.metrics().counter("ctrl.recovery_redeploys", {}).inc();
      redeploy(flow, *restarted);
    }
  }
}

}  // namespace p4u::faults
