#include "reference_monitor.hpp"

#include <algorithm>
#include <map>
#include <sstream>

namespace p4u::harness {

std::vector<net::FlowId> ReferenceMonitor::watched_ids_sorted() const {
  std::vector<net::FlowId> ids;
  ids.reserve(flows_.size());
  for (const auto& [id, flow] : flows_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

void ReferenceMonitor::attach() {
  if (!handle_.active()) handle_ = fabric_->subscribe(this);
}

void ReferenceMonitor::on_rule_installed(net::NodeId node, net::FlowId flow,
                                         std::int32_t port) {
  (void)node;
  (void)port;
  if (flows_.count(flow) != 0) check_flow(flow);
}

void ReferenceMonitor::on_link_state(net::LinkId link, net::NodeId a,
                                     net::NodeId b, bool up) {
  (void)a;
  (void)b;
  if (up) return;
  // This fires before the fabric downs the link, so the walk below still
  // sees the pre-fault path: flows routed over the link get excused.
  for (const net::FlowId id : watched_ids_sorted()) {
    const std::vector<net::NodeId> walk = walk_nodes(id);
    for (std::size_t i = 0; i + 1 < walk.size(); ++i) {
      const auto hop = fabric_->graph().find_link(walk[i], walk[i + 1]);
      if (hop && *hop == link) {
        excused_.insert(id);
        break;
      }
    }
  }
}

void ReferenceMonitor::on_switch_state(net::NodeId node, bool up) {
  if (up) return;
  for (const net::FlowId id : watched_ids_sorted()) {
    const std::vector<net::NodeId> walk = walk_nodes(id);
    if (std::find(walk.begin(), walk.end(), node) != walk.end()) {
      excused_.insert(id);
    }
  }
}

std::vector<net::NodeId> ReferenceMonitor::walk_nodes(net::FlowId flow) const {
  std::vector<net::NodeId> walk;
  auto it = flows_.find(flow);
  if (it == flows_.end()) return walk;
  std::set<net::NodeId> visited;
  net::NodeId cur = it->second.ingress;
  while (visited.insert(cur).second) {
    walk.push_back(cur);
    const auto port = fabric_->sw(cur).lookup(flow);
    if (!port || *port == p4rt::SwitchDevice::kLocalPort) break;
    const net::NodeId next = fabric_->graph().neighbor_via(cur, *port);
    if (next == net::kNoNode) break;
    cur = next;
  }
  return walk;
}

bool ReferenceMonitor::has_loop(net::FlowId flow) const {
  // The per-flow forwarding graph is functional (<=1 successor per node);
  // iterate with visited-coloring to find any cycle.
  const auto n = fabric_->switch_count();
  std::vector<std::uint8_t> color(n, 0);  // 0 unvisited, 1 in walk, 2 done
  for (std::size_t start = 0; start < n; ++start) {
    if (color[start] != 0) continue;
    std::vector<std::size_t> walk;
    std::size_t cur = start;
    for (;;) {
      if (color[cur] == 1) {
        for (std::size_t w : walk) color[w] = 2;
        return true;  // re-entered the current walk: cycle
      }
      if (color[cur] == 2) break;
      color[cur] = 1;
      walk.push_back(cur);
      const auto port = fabric_->sw(static_cast<net::NodeId>(cur)).lookup(flow);
      if (!port || *port == p4rt::SwitchDevice::kLocalPort) break;
      const net::NodeId next = fabric_->graph().neighbor_via(
          static_cast<net::NodeId>(cur), *port);
      if (next == net::kNoNode) break;
      cur = static_cast<std::size_t>(next);
    }
    for (std::size_t w : walk) color[w] = 2;
  }
  return false;
}

bool ReferenceMonitor::has_blackhole(net::FlowId flow) const {
  auto it = flows_.find(flow);
  if (it == flows_.end()) return false;
  std::set<net::NodeId> visited;
  net::NodeId cur = it->second.ingress;
  while (visited.insert(cur).second) {
    const auto port = fabric_->sw(cur).lookup(flow);
    if (!port) return true;  // a reachable node without a rule
    if (*port == p4rt::SwitchDevice::kLocalPort) return false;  // delivered
    const net::NodeId next = fabric_->graph().neighbor_via(cur, *port);
    if (next == net::kNoNode) return true;  // rule points nowhere
    cur = next;
  }
  return false;  // looped: reported by has_loop, not as a blackhole
}

ReferenceMonitor::WalkEnd ReferenceMonitor::walk_flow(net::FlowId flow) const {
  auto it = flows_.find(flow);
  if (it == flows_.end()) return WalkEnd::kDelivered;
  std::set<net::NodeId> visited;
  net::NodeId cur = it->second.ingress;
  while (visited.insert(cur).second) {
    if (!fabric_->switch_is_up(cur)) return WalkEnd::kFaulted;
    const auto port = fabric_->sw(cur).lookup(flow);
    if (!port) return WalkEnd::kBlackhole;
    if (*port == p4rt::SwitchDevice::kLocalPort) return WalkEnd::kDelivered;
    const auto& adj = fabric_->graph().neighbors(cur);
    if (*port < 0 || static_cast<std::size_t>(*port) >= adj.size()) {
      return WalkEnd::kBlackhole;  // rule points nowhere
    }
    const auto& edge = adj[static_cast<std::size_t>(*port)];
    if (!fabric_->link_is_up(edge.link)) return WalkEnd::kFaulted;
    cur = edge.neighbor;
  }
  return WalkEnd::kLoop;
}

std::vector<std::string> ReferenceMonitor::capacity_overloads() const {
  // Aggregate per directed edge: sum of watched-flow sizes routed over it.
  // Flow order fixes the float accumulation order, so iterate sorted ids —
  // hash order would make near-capacity verdicts depend on insertion
  // history.
  std::map<std::pair<net::NodeId, net::NodeId>, double> load;
  for (const net::FlowId id : watched_ids_sorted()) {
    const net::Flow& flow = flows_.at(id);
    for (std::size_t n = 0; n < fabric_->switch_count(); ++n) {
      const auto node = static_cast<net::NodeId>(n);
      const auto port = fabric_->sw(node).lookup(id);
      if (!port || *port == p4rt::SwitchDevice::kLocalPort) continue;
      const net::NodeId next = fabric_->graph().neighbor_via(node, *port);
      if (next == net::kNoNode) continue;
      load[{node, next}] += flow.size;
    }
  }
  std::vector<std::string> out;
  for (const auto& [edge, used] : load) {
    const auto link = fabric_->graph().find_link(edge.first, edge.second);
    if (!link) continue;
    const double cap = fabric_->graph().link(*link).capacity;
    if (used > cap + 1e-9) {
      std::ostringstream os;
      os << "link " << edge.first << "->" << edge.second << " load " << used
         << " > capacity " << cap;
      out.push_back(os.str());
    }
  }
  return out;
}

void ReferenceMonitor::check_flow(net::FlowId flow) {
  const sim::Time now = fabric_->simulator().now();
  if (has_loop(flow)) {
    // Loops are always the update system's fault — no physical failure
    // writes a cyclic rule set — so faults never excuse them.
    ++violations_.loops;
    fabric_->trace().add(
        {now, sim::TraceKind::kLoopDetected, -1, flow, 0, 0, "monitor"});
    findings_.push_back("loop in flow " + std::to_string(flow) + " at t=" +
                        std::to_string(sim::to_ms(now)) + "ms");
  }
  switch (walk_flow(flow)) {
    case WalkEnd::kDelivered:
      excused_.erase(flow);  // a clean walk ends the fault excuse
      break;
    case WalkEnd::kFaulted:
      // The physical fault, not the update logic, broke this walk.
      ++violations_.faulted_walks;
      excused_.insert(flow);
      break;
    case WalkEnd::kBlackhole:
      if (excused_.count(flow) != 0) {
        ++violations_.faulted_walks;
        fabric_->trace().add({now, sim::TraceKind::kInfo, -1, flow, 0, 0,
                              "monitor: blackhole excused by fault"});
      } else {
        ++violations_.blackholes;
        fabric_->trace().add({now, sim::TraceKind::kBlackholeDetected, -1,
                              flow, 0, 0, "monitor"});
        findings_.push_back("blackhole in flow " + std::to_string(flow) +
                            " at t=" + std::to_string(sim::to_ms(now)) + "ms");
      }
      break;
    case WalkEnd::kLoop:
      break;  // counted above
  }
  if (check_capacity_) {
    for (const std::string& f : capacity_overloads()) {
      ++violations_.capacity;
      fabric_->trace().add(
          {now, sim::TraceKind::kCapacityViolated, -1, flow, 0, 0, f});
      findings_.push_back(f + " at t=" + std::to_string(sim::to_ms(now)) +
                          "ms");
    }
  }
}

void ReferenceMonitor::export_violations(obs::MetricsRegistry& m) const {
  const std::pair<const char*, std::uint64_t> kinds[] = {
      {"loop", violations_.loops},
      {"blackhole", violations_.blackholes},
      {"capacity", violations_.capacity},
  };
  for (const auto& [kind, total] : kinds) {
    obs::Counter c = m.counter("monitor.violation", {{"kind", kind}});
    if (total > c.value()) c.inc(total - c.value());
  }
  obs::Counter fw = m.counter("monitor.faulted_walks");
  if (violations_.faulted_walks > fw.value()) {
    fw.inc(violations_.faulted_walks - fw.value());
  }
}

void ReferenceMonitor::check_all() {
  // Sorted order: findings_ and trace entries are emitted here, and their
  // order is part of the deterministic-report contract.
  for (const net::FlowId id : watched_ids_sorted()) check_flow(id);
}

}  // namespace p4u::harness
