// 2-phase-commit updates (§11 "2-Phase Commit Updates"; Reitblatt et
// al. [64]) on top of P4Update.
//
// P4Update's SL/DL updates are blackhole-, loop- and congestion-free, but a
// packet in flight during the transition may traverse a *mix* of old and
// new rules. When per-packet policy consistency is required, the §11 recipe
// is:
//   phase 1 — deploy the new configuration under a fresh tag (here: a
//             derived flow id) with a single-layer update; the tagged rules
//             carry no traffic while they install, so any install order is
//             consistent;
//   phase 2 — upon the phase-1 UFM, flip the ingress stamp: from then on
//             every packet is rewritten to the new tag and rides the new
//             generation end-to-end;
//   cleanup — after a grace period covering in-flight packets, remove the
//             previous generation's rules.
#pragma once

#include <functional>
#include <map>

#include "core/p4update_controller.hpp"

namespace p4u::core {

/// Derives the tagged flow id for `base` at `epoch` (epoch 0 = the id used
/// at initial deployment). Stable and collision-free per (base, epoch).
net::FlowId tagged_flow_id(net::FlowId base, std::uint32_t epoch);

class TwoPhaseCoordinator {
 public:
  /// Wraps a P4Update controller; chains onto its on_settled callback
  /// (existing callbacks keep firing, after the coordinator's own step).
  TwoPhaseCoordinator(P4UpdateController& controller,
                      p4rt::ControlChannel& channel,
                      sim::Duration cleanup_grace = sim::milliseconds(500));

  /// Brings a flow up for the first time: deploys generation 0 under the
  /// epoch-0 tag and stamps the ingress once it converged.
  void deploy(const net::Flow& flow, const net::Path& path);

  /// Migrates the flow to `new_path` with per-packet consistency: phase 1
  /// installs the next generation, phase 2 flips the stamp, and the old
  /// generation is cleaned up after the grace period.
  void migrate(net::FlowId base_flow, const net::Path& new_path);

  /// Tag currently carrying traffic for the flow (epoch-tagged id), or 0.
  [[nodiscard]] net::FlowId active_tag(net::FlowId base_flow) const;

  /// Fires when a migration's stamp flipped (traffic now on the new path).
  std::function<void(net::FlowId /*base*/, net::FlowId /*new tag*/)>
      on_stamped;

 private:
  struct FlowState {
    net::Flow flow;
    net::Path path;           // path of the active generation
    std::uint32_t epoch = 0;  // active epoch
    net::Path pending_path;   // path of the generation being installed
    bool migrating = false;
  };

  void on_generation_ready(net::FlowId tagged, p4rt::Version version);

  P4UpdateController& controller_;
  p4rt::ControlChannel& channel_;
  sim::Duration cleanup_grace_;
  std::map<net::FlowId, FlowState> flows_;      // by base id
  std::map<net::FlowId, net::FlowId> by_tag_;   // tagged id -> base id
};

}  // namespace p4u::core
