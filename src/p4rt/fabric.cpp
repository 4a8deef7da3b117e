#include "p4rt/fabric.hpp"

#include <stdexcept>

#include "sim/time.hpp"

namespace p4u::p4rt {

namespace {

obs::LabelSet switch_msg_labels(NodeId node, const Packet& pkt) {
  return {{"switch", std::to_string(node)}, {"msg", message_kind(pkt)}};
}

}  // namespace

void ObserverHandle::reset() {
  if (fabric_ != nullptr) {
    fabric_->unsubscribe(token_);
    fabric_ = nullptr;
  }
}

Fabric::Fabric(sim::Simulator& sim, const net::Graph& graph,
               SwitchParams params, std::uint64_t seed, faults::FaultPlan plan)
    : sim_(sim),
      graph_(graph),
      plan_(std::move(plan)),
      model_(plan_.model),
      fault_rng_(seed ^ 0xFAB51Cull) {
  sim::Rng seeder(seed);
  switches_.reserve(graph.node_count());
  for (std::size_t i = 0; i < graph.node_count(); ++i) {
    switches_.push_back(std::make_unique<SwitchDevice>(
        *this, static_cast<NodeId>(i), params, seeder.fork()));
  }
  tx_counters_.resize(graph.node_count());
  rx_counters_.resize(graph.node_count());
  drop_counters_.resize(graph.node_count());
  inject_counters_.resize(graph.node_count());
  reorder_counters_.resize(graph.node_count());
  link_up_.assign(graph.link_count(), 1);
  // Pre-register the traffic families (Prometheus idiom) so every run
  // report carries tx/rx/drop and latency lines even when a run never
  // exercises them (e.g. zero drops without a fault model).
  metrics_.counter("fabric.tx");
  metrics_.counter("fabric.rx");
  metrics_.counter("fabric.drop");
  hop_latency_control_ =
      metrics_.histogram("fabric.hop_latency_ms", {{"class", "control"}});
  hop_latency_data_ =
      metrics_.histogram("fabric.hop_latency_ms", {{"class", "data"}});
  if (!plan_.events().empty()) {
    // Scheduled faults get their reason-counter cells up front, so any run
    // with a fault plan reports the family even when nothing was in flight.
    link_down_drops_ = metrics_.counter("fabric.link_down_drop");
    crash_drops_ = metrics_.counter("fabric.crash_drop");
    for (const faults::FaultEvent& e : plan_.events()) {
      // kFault is opaque to the independence relation: a fault may touch
      // topology state every flow depends on.
      sim_.schedule_at(e.at,
                       sim::EventTag{-1, sim::EventClass::kFault, 0},
                       [this, e] { apply_fault(e); });
    }
  }
}

ObserverHandle Fabric::subscribe(FabricObserver* obs) {
  const std::uint64_t token = next_observer_token_++;
  observers_.emplace_back(token, obs);
  return ObserverHandle{this, token};
}

void Fabric::unsubscribe(std::uint64_t token) {
  for (auto it = observers_.begin(); it != observers_.end(); ++it) {
    if (it->first == token) {
      observers_.erase(it);
      return;
    }
  }
}

void Fabric::notify_rule_installed(NodeId node, FlowId flow,
                                   std::int32_t port) {
  for (auto& [token, obs] : observers_) obs->on_rule_installed(node, flow, port);
}

void Fabric::notify_data_arrival(NodeId node, const DataHeader& data) {
  for (auto& [token, obs] : observers_) obs->on_data_arrival(node, data);
}

void Fabric::notify_delivered(NodeId node, const DataHeader& data) {
  for (auto& [token, obs] : observers_) obs->on_delivered(node, data);
}

void Fabric::notify_ttl_expired(NodeId node, const DataHeader& data) {
  for (auto& [token, obs] : observers_) obs->on_ttl_expired(node, data);
}

void Fabric::notify_blackhole(NodeId node, const DataHeader& data) {
  for (auto& [token, obs] : observers_) obs->on_blackhole(node, data);
}

void Fabric::notify_link_state(net::LinkId link, NodeId a, NodeId b, bool up) {
  for (auto& [token, obs] : observers_) obs->on_link_state(link, a, b, up);
}

void Fabric::notify_switch_state(NodeId node, bool up) {
  for (auto& [token, obs] : observers_) obs->on_switch_state(node, up);
}

void Fabric::apply_fault(const faults::FaultEvent& e) {
  metrics_
      .counter("fabric.fault_events", {{"kind", faults::to_string(e.kind)}})
      .inc();
  switch (e.kind) {
    case faults::FaultKind::kLinkDown:
    case faults::FaultKind::kLinkUp: {
      const bool up = e.kind == faults::FaultKind::kLinkUp;
      const auto link = graph_.find_link(e.a, e.b);
      if (!link) {
        throw std::logic_error("Fabric: fault plan names a nonexistent link " +
                               std::to_string(e.a) + "-" + std::to_string(e.b));
      }
      trace_.add({sim_.now(),
                  up ? sim::TraceKind::kLinkUp : sim::TraceKind::kLinkDown,
                  e.a, 0, e.b, *link, ""});
      // Observers first: the invariant monitor walks the pre-fault state to
      // learn which flows the outage excuses.
      notify_link_state(*link, e.a, e.b, up);
      link_up_.at(static_cast<std::size_t>(*link)) =
          static_cast<std::uint8_t>(up);
      break;
    }
    case faults::FaultKind::kSwitchCrash: {
      trace_.add({sim_.now(), sim::TraceKind::kSwitchCrash, e.a, 0, 0, 0, ""});
      notify_switch_state(e.a, false);
      sw(e.a).crash();
      break;
    }
    case faults::FaultKind::kSwitchRestart: {
      trace_.add(
          {sim_.now(), sim::TraceKind::kSwitchRestart, e.a, 0, 0, 0, ""});
      notify_switch_state(e.a, true);
      sw(e.a).restart();
      break;
    }
    case faults::FaultKind::kSetModel:
      model_ = e.model;
      break;
  }
}

obs::Counter& Fabric::msg_counter(std::vector<KindCounters>& family,
                                  const char* name, NodeId node,
                                  const Packet& pkt) {
  obs::Counter& c =
      family[static_cast<std::size_t>(node)].by_kind[pkt.kind_index()];
  if (!c.resolved()) c = metrics_.counter(name, switch_msg_labels(node, pkt));
  return c;
}

void Fabric::transmit(NodeId from, std::int32_t out_port, Packet pkt) {
  const auto& adj = graph_.neighbors(from);
  if (out_port < 0 || static_cast<std::size_t>(out_port) >= adj.size()) {
    throw std::out_of_range("Fabric::transmit: invalid port " +
                            std::to_string(out_port) + " at switch " +
                            std::to_string(from));
  }
  const NodeId to = adj[static_cast<std::size_t>(out_port)].neighbor;
  const net::LinkId link = adj[static_cast<std::size_t>(out_port)].link;
  msg_counter(tx_counters_, "fabric.tx", from, pkt).inc();

  // Scheduled faults: a downed link blackholes at send time, in both
  // directions. (Packets already in flight keep arriving — they cleared the
  // failing segment before it went down.)
  if (link_up_.at(static_cast<std::size_t>(link)) == 0) {
    msg_counter(drop_counters_, "fabric.drop", from, pkt).inc();
    if (!link_down_drops_.resolved()) {
      link_down_drops_ = metrics_.counter("fabric.link_down_drop");
    }
    link_down_drops_.inc();
    trace_.add_lazy([&] {
      return sim::TraceEntry{sim_.now(),       sim::TraceKind::kMessageDropped,
                             from,             pkt.flow(),
                             to,               0,
                             "link down: " + describe(pkt)};
    });
    return;
  }

  // Random fault injection (verification model, §5). The coin is a
  // schedule choice point: with a strategy installed it decides (an
  // explorer enumerates both outcomes); without one the seeded stream
  // draws exactly as it always has.
  const bool is_data = pkt.is<DataHeader>();
  const double drop_p =
      is_data ? model_.data_drop_prob : model_.control_drop_prob;
  sim::ScheduleStrategy* const strat = sim_.strategy();
  if (drop_p > 0.0) {
    const sim::CoinPoint cp{
        is_data ? sim::CoinKind::kDataDrop : sim::CoinKind::kCtrlDrop, from,
        pkt.flow(), drop_p};
    const bool dropped = strat != nullptr
                             ? strat->coin(cp, fault_rng_)
                             : fault_rng_.uniform01() < drop_p;
    if (dropped) {
      msg_counter(drop_counters_, "fabric.drop", from, pkt).inc();
      trace_.add_lazy([&] {
        return sim::TraceEntry{sim_.now(), sim::TraceKind::kMessageDropped,
                               from,       pkt.flow(),
                               0,          0,
                               "fault: " + describe(pkt)};
      });
      return;
    }
  }

  sim::Duration latency = graph_.latency_between(from, to);
  if (model_.reorder_jitter > 0) {
    const sim::CoinPoint cp{sim::CoinKind::kReorder, from, pkt.flow(), 0.0};
    const sim::Duration extra =
        strat != nullptr
            ? strat->jitter(cp, model_.reorder_jitter, fault_rng_)
            : static_cast<sim::Duration>(fault_rng_.uniform(
                  static_cast<std::uint64_t>(model_.reorder_jitter) + 1));
    // Saturate instead of overflowing: an arbitrarily large jitter knob
    // must delay, never wrap into the past.
    latency = extra > sim::kTimeInfinity - latency ? sim::kTimeInfinity
                                                   : latency + extra;
    if (extra > 0) {
      msg_counter(reorder_counters_, "fabric.reordered", from, pkt).inc();
    }
  }
  const std::int32_t in_port = graph_.port_of(to, from);
  // Hoisted: the tag argument and the move-capture of pkt are
  // indeterminately sequenced within the schedule_in call.
  const FlowId flow = pkt.flow();
  const sim::EventTag tag{to, sim::EventClass::kDelivery, flow};
  (is_data ? hop_latency_data_ : hop_latency_control_)
      .observe(sim::to_ms(latency));
  sim_.schedule_in(latency, tag,
                   [this, from, to, in_port, pkt = std::move(pkt)]() mutable {
    // A switch that crashed while the packet was in flight eats it:
    // accounted as a fabric drop (tx = rx + drop stays an invariant),
    // attributed to the transmitting hop like every other drop.
    if (sw(to).crashed()) {
      msg_counter(drop_counters_, "fabric.drop", from, pkt).inc();
      if (!crash_drops_.resolved()) {
        crash_drops_ = metrics_.counter("fabric.crash_drop");
      }
      crash_drops_.inc();
      trace_.add_lazy([&] {
        return sim::TraceEntry{sim_.now(),
                               sim::TraceKind::kMessageDropped,
                               from,
                               pkt.flow(),
                               to,
                               0,
                               "switch down: " + describe(pkt)};
      });
      return;
    }
    msg_counter(rx_counters_, "fabric.rx", to, pkt).inc();
    sw(to).receive(std::move(pkt), in_port);
  });
}

void Fabric::inject(NodeId at, Packet pkt, std::int32_t in_port) {
  // Validate `at` eagerly, while the caller is on the stack; the returned
  // reference itself is unused.
  static_cast<void>(sw(at));
  msg_counter(inject_counters_, "fabric.inject", at, pkt).inc();
  const FlowId flow = pkt.flow();  // hoisted past the move-capture below
  const sim::EventTag tag{at, sim::EventClass::kDelivery, flow};
  sim_.schedule_in(0, tag, [this, at, in_port, pkt = std::move(pkt)]() mutable {
    sw(at).receive(std::move(pkt), in_port);
  });
}

}  // namespace p4u::p4rt
