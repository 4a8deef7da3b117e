#include "core/congestion.hpp"

namespace p4u::core {

double CongestionScheduler::port_capacity(std::int32_t port) const {
  const auto& adj = graph_->neighbors(self_);
  const auto& a = adj.at(static_cast<std::size_t>(port));
  return graph_->link(a.link).capacity;
}

double CongestionScheduler::reserved(const p4rt::SwitchDevice& sw,
                                     const Uib& uib, std::int32_t port,
                                     FlowId except) const {
  double used = 0.0;
  sw.for_each_rule([&](FlowId flow, std::int32_t p) {
    if (flow != except && p == port) used += uib.flow_size(flow);
  });
  // Approved-but-not-yet-installed moves also hold the capacity; skip flows
  // whose current rule is already on this port (no double counting).
  for (const auto& [flow, move] : inflight_) {
    if (flow == except || move.first != port) continue;
    const auto cur = sw.lookup(flow);
    if (cur && *cur == port) continue;
    used += move.second;
  }
  return used;
}

bool CongestionScheduler::high_priority_waiter(const Uib& uib,
                                               std::int32_t port,
                                               FlowId except) const {
  for (const auto& [flow, p] : waiting_) {
    if (flow != except && p == port && uib.high_priority(flow)) return true;
  }
  return false;
}

CongestionScheduler::Decision CongestionScheduler::try_move(
    const p4rt::SwitchDevice& sw, const Uib& uib, FlowId f,
    std::int32_t to_port, double size) const {
  Decision d;
  if (to_port == p4rt::SwitchDevice::kLocalPort) {
    d.allowed = d.capacity_ok = true;  // local delivery consumes no link
    return d;
  }
  const auto cur = sw.lookup(f);
  if (cur && *cur == to_port) {
    // §A.2: the flow already holds capacity on this link; the check
    // succeeds automatically.
    d.allowed = d.capacity_ok = true;
    return d;
  }
  d.capacity_ok =
      port_capacity(to_port) - reserved(sw, uib, to_port, f) >= size;
  if (!d.capacity_ok) return d;
  if (!uib.high_priority(f) && high_priority_waiter(uib, to_port, f)) {
    d.blocked_by_priority = true;  // yield to a high-priority waiter
    return d;
  }
  d.allowed = true;
  return d;
}

int CongestionScheduler::on_deferred(const p4rt::SwitchDevice& sw, Uib& uib,
                                     FlowId f, std::int32_t to_port) {
  waiting_[f] = to_port;
  // Raise priority of every flow currently on `to_port` that has a pending
  // move away from it (§7.4): those moves free the capacity `f` needs.
  int raised = 0;
  sw.for_each_rule([&](FlowId flow, std::int32_t port) {
    if (port != to_port || flow == f) return;
    const UimHeader* pending = uib.pending_uim(flow);
    if (pending != nullptr && pending->egress_port_updated != to_port &&
        !uib.high_priority(flow)) {
      uib.set_high_priority(flow, true);
      ++raised;
    }
  });
  return raised;
}

void CongestionScheduler::on_resolved(Uib& uib, FlowId f) {
  waiting_.erase(f);
  inflight_.erase(f);
  uib.set_high_priority(f, false);
}

}  // namespace p4u::core
