#include "harness/invariant_monitor.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <sstream>

namespace p4u::harness {

void InvariantMonitor::watch_flow(const net::Flow& f) {
  const std::size_t before = index_.size();
  const net::FlowHandle h = index_.intern(f.id);
  if (index_.size() != before) {
    if (!ids_.empty() && f.id < ids_.back()) ids_sorted_ = false;
    ids_.push_back(f.id);
  }
  watched_.row(h, index_.generation(h)).flow = f;
}

const std::vector<net::FlowId>& InvariantMonitor::watched_ids() const {
  if (!ids_sorted_) {
    std::sort(ids_.begin(), ids_.end());
    ids_sorted_ = true;
  }
  return ids_;
}

InvariantMonitor::Watched* InvariantMonitor::find_watched(net::FlowId flow) {
  const net::FlowHandle h = index_.find(flow);
  if (h == net::kNoFlowHandle) return nullptr;
  return &watched_.row(h, index_.generation(h));
}

const InvariantMonitor::Watched* InvariantMonitor::find_watched(
    net::FlowId flow) const {
  const net::FlowHandle h = index_.find(flow);
  if (h == net::kNoFlowHandle) return nullptr;
  return &watched_.get(h, index_.generation(h));
}

const net::Flow* InvariantMonitor::watched(net::FlowId flow) const {
  const Watched* w = find_watched(flow);
  return w == nullptr ? nullptr : &w->flow;
}

void InvariantMonitor::attach() {
  if (handle_.active()) return;
  handle_ = fabric_->subscribe(this);
  // Installs made while detached went unseen, so the anchors may miss a
  // cycle they created: every flow re-seeds at its next check.
  index_.for_each([this](net::FlowHandle h, net::FlowId) {
    watched_.row(h, index_.generation(h)).seeded = false;
  });
}

void InvariantMonitor::on_rule_installed(net::NodeId node, net::FlowId flow,
                                         std::int32_t port) {
  (void)port;
  Watched* w = find_watched(flow);
  if (w != nullptr) report(flow, loop_after_install(*w, node));
}

void InvariantMonitor::on_link_state(net::LinkId link, net::NodeId a,
                                     net::NodeId b, bool up) {
  (void)a;
  (void)b;
  if (up) return;
  // This fires before the fabric downs the link, so the walk below still
  // sees the pre-fault path: flows routed over the link get excused.
  std::vector<net::NodeId> trail;
  for (const net::FlowId id : watched_ids()) {
    trail.clear();
    walk(find_watched(id)->flow, false, &trail);
    for (std::size_t i = 0; i + 1 < trail.size(); ++i) {
      const auto hop = fabric_->graph().find_link(trail[i], trail[i + 1]);
      if (hop && *hop == link) {
        excused_.insert(id);
        break;
      }
    }
  }
}

void InvariantMonitor::on_switch_state(net::NodeId node, bool up) {
  if (up) return;
  std::vector<net::NodeId> trail;
  for (const net::FlowId id : watched_ids()) {
    trail.clear();
    walk(find_watched(id)->flow, false, &trail);
    if (std::find(trail.begin(), trail.end(), node) != trail.end()) {
      excused_.insert(id);
    }
  }
}

std::uint32_t InvariantMonitor::fresh_epochs(std::uint32_t k) const {
  if (epoch_ > std::numeric_limits<std::uint32_t>::max() - k) {
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 0;
  }
  const std::uint32_t first = epoch_ + 1;
  epoch_ += k;
  return first;
}

InvariantMonitor::WalkEnd InvariantMonitor::walk(
    const net::Flow& f, bool faults, std::vector<net::NodeId>* trail) const {
  const std::uint32_t e = fresh_epochs(1);
  net::NodeId cur = f.ingress;
  for (;;) {
    // at(): a watched flow's ingress is caller input, checked like sw().
    std::uint32_t& seen = stamp_.at(static_cast<std::size_t>(cur));
    if (seen == e) return WalkEnd::kLoop;
    seen = e;
    if (trail != nullptr) trail->push_back(cur);
    if (faults && !fabric_->switch_is_up(cur)) return WalkEnd::kFaulted;
    const auto port = fabric_->sw(cur).lookup(f.id);
    if (!port) return WalkEnd::kBlackhole;
    if (*port == p4rt::SwitchDevice::kLocalPort) return WalkEnd::kDelivered;
    const auto& adj = fabric_->graph().neighbors(cur);
    if (*port < 0 || static_cast<std::size_t>(*port) >= adj.size()) {
      return WalkEnd::kBlackhole;  // rule points nowhere
    }
    const auto& edge = adj[static_cast<std::size_t>(*port)];
    if (faults && !fabric_->link_is_up(edge.link)) return WalkEnd::kFaulted;
    cur = edge.neighbor;
  }
}

net::NodeId InvariantMonitor::next_hop(net::NodeId node,
                                       net::FlowId flow) const {
  const auto port = fabric_->sw(node).lookup(flow);
  if (!port || *port == p4rt::SwitchDevice::kLocalPort) return net::kNoNode;
  return fabric_->graph().neighbor_via(node, *port);
}

std::vector<net::NodeId> InvariantMonitor::scan_cycles(
    net::FlowId flow) const {
  // The per-flow forwarding graph is functional (<=1 successor per node),
  // so its cycles are disjoint. Each start node walks under its own epoch;
  // meeting the current epoch closes a new cycle, meeting an older epoch of
  // this scan joins a path already explored.
  const auto n = static_cast<std::uint32_t>(fabric_->switch_count());
  const std::uint32_t base = fresh_epochs(n);
  std::vector<net::NodeId> anchors;
  for (std::uint32_t start = 0; start < n; ++start) {
    if (stamp_[start] >= base) continue;
    const std::uint32_t e = base + start;
    auto cur = static_cast<net::NodeId>(start);
    while (cur != net::kNoNode) {
      std::uint32_t& seen = stamp_[static_cast<std::size_t>(cur)];
      if (seen == e) {
        anchors.push_back(cur);
        break;
      }
      if (seen >= base) break;
      seen = e;
      cur = next_hop(cur, flow);
    }
  }
  return anchors;
}

bool InvariantMonitor::on_cycle(net::NodeId start, net::FlowId flow) const {
  const std::uint32_t e = fresh_epochs(1);
  net::NodeId cur = start;
  for (;;) {
    stamp_[static_cast<std::size_t>(cur)] = e;
    cur = next_hop(cur, flow);
    if (cur == start) return true;
    if (cur == net::kNoNode || stamp_[static_cast<std::size_t>(cur)] == e) {
      return false;  // walk ended, or fell into a cycle that misses start
    }
  }
}

bool InvariantMonitor::loop_after_install(Watched& w, net::NodeId node) {
  const net::FlowId flow = w.flow.id;
  if (!w.seeded) {
    w.anchors = scan_cycles(flow);
    w.seeded = true;
    return !w.anchors.empty();
  }
  // Only `node`'s out-edge changed since the last check, and silent rule
  // removals and crashes only delete edges: a known cycle may have broken,
  // and the only cycle that can be new runs through `node`.
  auto& anchors = w.anchors;
  anchors.erase(std::remove_if(anchors.begin(), anchors.end(),
                               [&](net::NodeId a) {
                                 return !on_cycle(a, flow);
                               }),
                anchors.end());
  if (on_cycle(node, flow) &&
      std::none_of(anchors.begin(), anchors.end(), [&](net::NodeId a) {
        return stamp_[static_cast<std::size_t>(a)] == epoch_;
      })) {
    anchors.push_back(node);  // not a rewrite on an already-known cycle
  }
  return !anchors.empty();
}

bool InvariantMonitor::has_loop(net::FlowId flow) const {
  return !scan_cycles(flow).empty();
}

bool InvariantMonitor::has_blackhole(net::FlowId flow) const {
  const Watched* w = find_watched(flow);
  // A loop is reported by has_loop, not as a blackhole.
  return w != nullptr && walk(w->flow, false) == WalkEnd::kBlackhole;
}

std::vector<std::string> InvariantMonitor::capacity_overloads() const {
  // Aggregate per directed edge: sum of watched-flow sizes routed over it.
  // Flow order fixes the float accumulation order, so iterate sorted ids —
  // watch order would make near-capacity verdicts depend on insertion
  // history.
  std::map<std::pair<net::NodeId, net::NodeId>, double> load;
  for (const net::FlowId id : watched_ids()) {
    const net::Flow& flow = find_watched(id)->flow;
    for (std::size_t n = 0; n < fabric_->switch_count(); ++n) {
      const auto node = static_cast<net::NodeId>(n);
      const net::NodeId next = next_hop(node, id);
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

void InvariantMonitor::check_flow(net::FlowId flow) {
  std::vector<net::NodeId> anchors = scan_cycles(flow);
  const bool loop = !anchors.empty();
  if (Watched* w = find_watched(flow)) {
    w->anchors = std::move(anchors);
    w->seeded = true;
  }
  report(flow, loop);
}

void InvariantMonitor::report(net::FlowId flow, bool loop) {
  const sim::Time now = fabric_->simulator().now();
  if (loop) {
    // Loops are always the update system's fault — no physical failure
    // writes a cyclic rule set — so faults never excuse them.
    ++violations_.loops;
    fabric_->trace().add(
        {now, sim::TraceKind::kLoopDetected, -1, flow, 0, 0, "monitor"});
    findings_.push_back("loop in flow " + std::to_string(flow) + " at t=" +
                        std::to_string(sim::to_ms(now)) + "ms");
  }
  const Watched* w = find_watched(flow);
  switch (w == nullptr ? WalkEnd::kDelivered : walk(w->flow, true)) {
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

void InvariantMonitor::export_violations(obs::MetricsRegistry& m) const {
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

void InvariantMonitor::check_all() {
  // Sorted order: findings_ and trace entries are emitted here, and their
  // order is part of the deterministic-report contract.
  for (const net::FlowId id : watched_ids()) check_flow(id);
}

}  // namespace p4u::harness
