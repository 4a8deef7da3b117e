#include "core/two_phase.hpp"

#include <utility>

namespace p4u::core {

net::FlowId tagged_flow_id(net::FlowId base, std::uint32_t epoch) {
  // splitmix-style mix so tags of different epochs never collide with each
  // other or with plain flow ids.
  std::uint64_t z = base ^ (0x2F0C0DE000000000ull + epoch);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

TwoPhaseCoordinator::TwoPhaseCoordinator(P4UpdateController& controller,
                                         p4rt::ControlChannel& channel,
                                         sim::Duration cleanup_grace)
    : controller_(controller),
      channel_(channel),
      cleanup_grace_(cleanup_grace) {
  // A generation is ready once its update completed; that runs before the
  // handler already installed (e.g. the admission queue's settle).
  auto previous = std::move(controller_.on_settled);
  controller_.on_settled = [this, previous = std::move(previous)](
                               net::FlowId flow, p4rt::Version version,
                               control::UpdateOutcome outcome, sim::Time at) {
    if (outcome == control::UpdateOutcome::kCompleted) {
      on_generation_ready(flow, version);
    }
    if (previous) previous(flow, version, outcome, at);
  };
}

void TwoPhaseCoordinator::deploy(const net::Flow& flow,
                                 const net::Path& path) {
  FlowState st;
  st.flow = flow;
  st.path = path;
  st.epoch = 0;
  st.pending_path = path;
  st.migrating = false;
  flows_[flow.id] = std::move(st);

  net::Flow tagged = flow;
  tagged.id = tagged_flow_id(flow.id, 0);
  by_tag_[tagged.id] = flow.id;
  controller_.deploy_new_flow(tagged, path);
}

void TwoPhaseCoordinator::migrate(net::FlowId base_flow,
                                  const net::Path& new_path) {
  FlowState& st = flows_.at(base_flow);
  st.pending_path = new_path;
  st.migrating = true;

  net::Flow tagged = st.flow;
  tagged.id = tagged_flow_id(base_flow, st.epoch + 1);
  by_tag_[tagged.id] = base_flow;
  // Phase 1: install the next generation's rules; they carry no traffic
  // until the stamp flips, so this is a plain fresh deployment.
  controller_.deploy_new_flow(tagged, new_path);
}

net::FlowId TwoPhaseCoordinator::active_tag(net::FlowId base_flow) const {
  auto it = flows_.find(base_flow);
  if (it == flows_.end()) return 0;
  return tagged_flow_id(base_flow, it->second.epoch);
}

void TwoPhaseCoordinator::on_generation_ready(net::FlowId tagged,
                                              p4rt::Version version) {
  (void)version;
  auto tag_it = by_tag_.find(tagged);
  if (tag_it == by_tag_.end()) return;  // not one of ours
  FlowState& st = flows_.at(tag_it->second);

  const net::FlowId expected_next =
      tagged_flow_id(st.flow.id, st.epoch + (st.migrating ? 1u : 0u));
  if (tagged != expected_next) return;  // stale completion (older epoch)

  // Phase 2: flip the ingress stamp onto the freshly installed generation.
  p4rt::StampHeader stamp;
  stamp.flow = st.flow.id;
  stamp.rewrite_to = tagged;
  channel_.send_to_switch(st.flow.ingress, p4rt::Packet{stamp});

  if (st.migrating) {
    // Cleanup: after a grace period for in-flight packets, remove the
    // previous generation's rules along its (old) path. A cleanup packet
    // with a higher version than anything applied removes the whole chain.
    const net::FlowId old_tag = tagged_flow_id(st.flow.id, st.epoch);
    const net::NodeId ingress = st.flow.ingress;
    p4rt::CleanupHeader cleanup;
    cleanup.flow = old_tag;
    cleanup.version = INT64_MAX;
    auto& channel = channel_;
    channel_.simulator().schedule_in(
        cleanup_grace_, [&channel, ingress, cleanup]() {
          channel.send_to_switch(ingress, p4rt::Packet{cleanup});
        });
    ++st.epoch;
    st.path = st.pending_path;
    st.migrating = false;
  }
  if (on_stamped) on_stamped(st.flow.id, tagged);
}

}  // namespace p4u::core
