// Fabric: the wired data plane.
//
// Owns one SwitchDevice per topology node, delivers packets across links
// with propagation latency, and executes the run's FaultPlan (faults/):
// the probabilistic §5 model (dropped update packets, update packet
// reordering) plus scheduled link-down / switch-crash events, with per-kind
// drop counters in the metrics registry. Observation goes through the
// multi-subscriber FabricObserver interface (invariant monitor, Fig. 2
// packet recorders, the control channel's failure detector).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "faults/fault_plan.hpp"
#include "net/graph.hpp"
#include "obs/metrics.hpp"
#include "p4rt/fabric_observer.hpp"
#include "p4rt/packet.hpp"
#include "p4rt/switch_device.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/trace.hpp"

namespace p4u::p4rt {

class ControlChannel;

class Fabric {
 public:
  Fabric(sim::Simulator& sim, const net::Graph& graph, SwitchParams params,
         std::uint64_t seed, faults::FaultPlan plan = {});
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  [[nodiscard]] SwitchDevice& sw(NodeId id) {
    return *switches_.at(static_cast<std::size_t>(id));
  }
  [[nodiscard]] const SwitchDevice& sw(NodeId id) const {
    return *switches_.at(static_cast<std::size_t>(id));
  }

  [[nodiscard]] std::size_t switch_count() const noexcept {
    return switches_.size();
  }
  [[nodiscard]] const net::Graph& graph() const noexcept { return graph_; }
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] sim::Trace& trace() noexcept { return trace_; }
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }

  /// The fault plan this fabric executes (read-only; fault state may only
  /// be declared up front or changed through scheduled plan events).
  [[nodiscard]] const faults::FaultPlan& fault_plan() const noexcept {
    return plan_;
  }

  /// Current link state (false while a kLinkDown outage is in effect).
  [[nodiscard]] bool link_is_up(net::LinkId link) const {
    return link_up_.at(static_cast<std::size_t>(link)) != 0;
  }
  /// Current switch liveness (false between crash and restart).
  [[nodiscard]] bool switch_is_up(NodeId node) const {
    return !sw(node).crashed();
  }

  /// Registers `obs` for every fabric event. Notification order is
  /// subscription order; the handle unsubscribes on destruction. Observers
  /// must outlive their handle and must not (un)subscribe from inside a
  /// notification.
  [[nodiscard]] ObserverHandle subscribe(FabricObserver* obs);

  /// Emits `pkt` from switch `from` on local port `out_port`; the neighbor
  /// receives it after link latency (+ faults). Downed links blackhole in
  /// both directions at send time; packets already in flight when a link
  /// drops still arrive (they left the failing segment earlier).
  void transmit(NodeId from, std::int32_t out_port, Packet pkt);

  /// Injects a packet into a switch as if received on `in_port` (traffic
  /// sources and test harnesses). Delivery goes through the event queue
  /// (a zero-delay event), never synchronously: an inject issued from
  /// inside an in-flight handler takes effect after every event already
  /// scheduled for the current instant, keeping event order deterministic.
  void inject(NodeId at, Packet pkt, std::int32_t in_port = -1);

  void set_control_channel(ControlChannel* cc) { control_ = cc; }
  [[nodiscard]] ControlChannel* control() noexcept { return control_; }

  // --- observer notification plumbing (SwitchDevice and fabric-internal;
  //     not for scenarios) ---
  void notify_rule_installed(NodeId node, FlowId flow, std::int32_t port);
  void notify_data_arrival(NodeId node, const DataHeader& data);
  void notify_delivered(NodeId node, const DataHeader& data);
  void notify_ttl_expired(NodeId node, const DataHeader& data);
  void notify_blackhole(NodeId node, const DataHeader& data);

 private:
  friend class ObserverHandle;

  /// Lazily resolved per-(switch, message-kind) counter handles for one
  /// metric family. Resolution is deferred to first use so the set of
  /// registry cells (and hence report contents) matches uncached behavior
  /// exactly; afterwards the hot path pays one array index per packet
  /// instead of a LabelSet allocation plus map lookup.
  struct KindCounters {
    std::array<obs::Counter, kPacketKindCount> by_kind;
  };

  obs::Counter& msg_counter(std::vector<KindCounters>& family,
                            const char* name, NodeId node, const Packet& pkt);

  /// Executes one scheduled fault event: observers are notified first (so
  /// they can walk the pre-fault state), then the effect is applied.
  void apply_fault(const faults::FaultEvent& e);
  void notify_link_state(net::LinkId link, NodeId a, NodeId b, bool up);
  void notify_switch_state(NodeId node, bool up);
  void unsubscribe(std::uint64_t token);

  sim::Simulator& sim_;
  const net::Graph& graph_;
  std::vector<std::unique_ptr<SwitchDevice>> switches_;
  sim::Trace trace_;
  obs::MetricsRegistry metrics_;
  faults::FaultPlan plan_;
  faults::FaultModel model_;  // probabilistic section currently in effect
  std::vector<std::uint8_t> link_up_;
  std::vector<std::pair<std::uint64_t, FabricObserver*>> observers_;
  std::uint64_t next_observer_token_ = 1;
  ControlChannel* control_ = nullptr;
  sim::Rng fault_rng_;
  std::vector<KindCounters> tx_counters_;
  std::vector<KindCounters> rx_counters_;
  std::vector<KindCounters> drop_counters_;
  std::vector<KindCounters> inject_counters_;
  std::vector<KindCounters> reorder_counters_;
  obs::Counter link_down_drops_;
  obs::Counter crash_drops_;
  obs::Histogram hop_latency_control_;
  obs::Histogram hop_latency_data_;
};

}  // namespace p4u::p4rt
