#include "p4rt/switch_device.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "p4rt/control_channel.hpp"
#include "p4rt/fabric.hpp"
#include "sim/time.hpp"

namespace p4u::p4rt {

namespace {

/// Tag for work on one switch scoped to one flow. A zero flow id means the
/// scope is unknown, and the event degrades to kInternal — conservatively
/// dependent on everything — rather than falsely claiming flow isolation.
sim::EventTag switch_tag(NodeId node, sim::EventClass cls, FlowId flow) {
  if (flow == 0) return sim::EventTag{node, sim::EventClass::kInternal, 0};
  return sim::EventTag{node, cls, flow};
}

}  // namespace

SwitchDevice::SwitchDevice(Fabric& fabric, NodeId id, SwitchParams params,
                           sim::Rng rng)
    : fabric_(fabric),
      id_(id),
      params_(params),
      rng_(rng),
      id_label_(std::to_string(id)) {}

obs::Gauge& SwitchDevice::queue_depth_gauge() {
  if (!queue_depth_gauge_.resolved()) {
    queue_depth_gauge_ = fabric_.metrics().gauge(
        "switch.queue_depth", {{"switch", id_label_}});
  }
  return queue_depth_gauge_;
}

obs::Histogram& SwitchDevice::service_histogram() {
  if (!service_hist_.resolved()) {
    service_hist_ = fabric_.metrics().histogram(
        "switch.service_ms", {{"switch", id_label_}});
  }
  return service_hist_;
}

obs::Counter& SwitchDevice::handled_counter(const Packet& pkt) {
  obs::Counter& c = handled_[pkt.kind_index()];
  if (!c.resolved()) {
    c = fabric_.metrics().counter(
        "switch.handled", {{"switch", id_label_}, {"msg", message_kind(pkt)}});
  }
  return c;
}

obs::Counter& SwitchDevice::rule_installs_counter() {
  if (!rule_installs_.resolved()) {
    rule_installs_ = fabric_.metrics().counter("switch.rule_installs",
                                               {{"switch", id_label_}});
  }
  return rule_installs_;
}

obs::Counter& SwitchDevice::crash_dropped_counter() {
  if (!crash_dropped_.resolved()) {
    crash_dropped_ = fabric_.metrics().counter(
        "switch.crash_dropped", {{"switch", id_label_}});
  }
  return crash_dropped_;
}

obs::Counter& SwitchDevice::installs_rejected_counter() {
  if (!installs_rejected_.resolved()) {
    installs_rejected_ = fabric_.metrics().counter(
        "switch.installs_rejected", {{"switch", id_label_}});
  }
  return installs_rejected_;
}

sim::Time SwitchDevice::now() const { return fabric_.simulator().now(); }

sim::Simulator& SwitchDevice::simulator() { return fabric_.simulator(); }

void SwitchDevice::receive(Packet pkt, std::int32_t in_port) {
  enqueue_for_service(std::move(pkt), in_port);
}

void SwitchDevice::enqueue_for_service(Packet pkt, std::int32_t in_port) {
  if (crashed_) {
    // Packets handed to a dead switch (inject, resubmit races) die at the
    // front panel; the fabric already intercepts link deliveries.
    crash_dropped_counter().inc();
    fabric_.trace().add_lazy([&] {
      return sim::TraceEntry{now(),       sim::TraceKind::kMessageDropped,
                             id_,         pkt.flow(),
                             0,           0,
                             "switch down: " + describe(pkt)};
    });
    return;
  }
  // Single-threaded pipeline: packets drain one per service_time.
  const sim::Time start = std::max(now(), busy_until_);
  const sim::Time done = start + params_.service_time;
  busy_until_ = done;
  queue_depth_gauge().set(static_cast<double>(++queue_depth_));
  service_histogram().observe(sim::to_ms(done - now()));
  // Hoisted: the tag and the move-capture of pkt are indeterminately
  // sequenced within the schedule_at call.
  const FlowId flow = pkt.flow();
  simulator().schedule_at(done,
                          switch_tag(id_, sim::EventClass::kService, flow),
                          [this, epoch = epoch_, pkt = std::move(pkt),
                           in_port]() mutable {
    if (epoch != epoch_) {
      // The switch crashed while this packet sat in the service queue.
      crash_dropped_counter().inc();
      return;
    }
    process(std::move(pkt), in_port);
  });
}

void SwitchDevice::process(Packet pkt, std::int32_t in_port) {
  queue_depth_gauge().set(static_cast<double>(--queue_depth_));
  handled_counter(pkt).inc();
  if (pkt.is<DataHeader>()) {
    DataHeader& data = pkt.as<DataHeader>();
    if (pipeline_ != nullptr) {
      pipeline_->on_data_packet(*this, data, in_port);
    }
    forward_data(data, in_port);
    return;
  }
  if (pipeline_ != nullptr) {
    pipeline_->handle(*this, std::move(pkt), in_port);
  }
}

void SwitchDevice::forward_data(DataHeader data, std::int32_t in_port) {
  (void)in_port;
  fabric_.notify_data_arrival(id_, data);

  const auto port = lookup(data.flow);
  if (!port) {
    fabric_.notify_blackhole(id_, data);
    fabric_.trace().add({now(), sim::TraceKind::kBlackholeDetected, id_,
                         data.flow, data.seq, 0, ""});
    return;
  }
  if (*port == kLocalPort) {
    fabric_.notify_delivered(id_, data);
    fabric_.trace().add({now(), sim::TraceKind::kPacketDelivered, id_,
                         data.flow, data.seq, 0, ""});
    return;
  }
  if (--data.ttl <= 0) {
    fabric_.notify_ttl_expired(id_, data);
    fabric_.trace().add({now(), sim::TraceKind::kPacketExpired, id_, data.flow,
                         data.seq, 0, ""});
    return;
  }
  fabric_.transmit(id_, *port, Packet{data});
}

void SwitchDevice::forward(Packet pkt, std::int32_t out_port) {
  fabric_.transmit(id_, out_port, std::move(pkt));
}

void SwitchDevice::clone_to_port(Packet pkt, std::int32_t out_port) {
  forward(std::move(pkt), out_port);
}

void SwitchDevice::send_to_controller(Packet pkt) {
  ControlChannel* cc = fabric_.control();
  if (cc != nullptr) cc->deliver_to_controller(id_, std::move(pkt));
}

void SwitchDevice::resubmit(Packet pkt, std::int32_t in_port) {
  const FlowId flow = pkt.flow();  // hoisted past the move-capture below
  simulator().schedule_in(
      params_.resubmit_interval,
      switch_tag(id_, sim::EventClass::kTimer, flow),
      [this, epoch = epoch_, pkt = std::move(pkt), in_port]() mutable {
        if (epoch != epoch_) {
          // Recirculating packets live in switch memory; a crash eats them.
          crash_dropped_counter().inc();
          return;
        }
        enqueue_for_service(std::move(pkt), in_port);
      });
}

std::optional<std::int32_t> SwitchDevice::lookup(FlowId flow) const {
  const net::FlowHandle h = index_.find(flow);
  if (h == net::kNoFlowHandle) return std::nullopt;
  const std::int32_t port = egress_.get(h, index_.generation(h));
  if (port == kNoRule) return std::nullopt;
  return port;
}

net::FlowHandle SwitchDevice::slot(FlowId flow) {
  const std::size_t before = index_.size();
  const net::FlowHandle h = index_.intern(flow);
  if (index_.size() != before) {
    if (!order_.empty() && flow < order_.back().first) order_sorted_ = false;
    order_.emplace_back(flow, h);
  }
  return h;
}

void SwitchDevice::release_slot(FlowId flow) {
  index_.release(flow);
  order_.erase(std::find_if(order_.begin(), order_.end(),
                            [flow](const auto& e) { return e.first == flow; }));
}

const std::vector<std::pair<FlowId, net::FlowHandle>>&
SwitchDevice::rule_order() const {
  if (!order_sorted_) {
    std::sort(order_.begin(), order_.end());
    order_sorted_ = true;
  }
  return order_;
}

sim::Duration SwitchDevice::sample_install_delay() {
  sim::Duration d = params_.install_delay;
  if (params_.straggler_mean_ms > 0.0) {
    d += sim::exponential_ms(rng_, params_.straggler_mean_ms);
  }
  return d;
}

void SwitchDevice::install_rule(FlowId flow, std::int32_t port,
                                std::function<void()> on_active, bool quick) {
  if (crashed_) {
    // The Thrift endpoint is down: the write is lost, not queued. The
    // on_active continuation never runs — timeout-based recovery upstream
    // is what notices.
    installs_rejected_counter().inc();
    return;
  }
  const sim::Duration delay =
      quick ? params_.register_write_delay : sample_install_delay();
  sim::Time done = now() + delay;
  const net::FlowHandle h = slot(flow);
  sim::Time& tail = install_tail_.row(h, index_.generation(h));
  if (tail != kNoTail) done = std::max(done, tail + 1);
  tail = done;
  // The slot outlives this event: remove_rule keeps a slot whose tail has
  // not passed, and crash() bumps the epoch before wiping the table.
  simulator().schedule_at(done,
                          switch_tag(id_, sim::EventClass::kInstall, flow),
                          [this, epoch = epoch_, flow, h, port,
                           on_active = std::move(on_active)]() {
    if (epoch != epoch_) {
      // Accepted before the crash, wiped with everything else.
      installs_rejected_counter().inc();
      return;
    }
    egress_.row(h, index_.generation(h)) = port;
    ++installs_completed_;
    rule_installs_counter().inc();
    fabric_.trace().add(
        {now(), sim::TraceKind::kRuleInstalled, id_, flow, port, 0, ""});
    fabric_.notify_rule_installed(id_, flow, port);
    if (on_active) on_active();
  });
}

void SwitchDevice::set_rule_now(FlowId flow, std::int32_t port) {
  if (crashed_) {
    installs_rejected_counter().inc();
    return;
  }
  const net::FlowHandle h = slot(flow);
  egress_.row(h, index_.generation(h)) = port;
  fabric_.notify_rule_installed(id_, flow, port);
}

void SwitchDevice::remove_rule(FlowId flow) {
  const net::FlowHandle h = index_.find(flow);
  if (h == net::kNoFlowHandle) return;
  const std::uint32_t gen = index_.generation(h);
  // A tail strictly before now() cannot push back any later install
  // (done >= now() > tail), so the slot holds nothing worth keeping.
  if (install_tail_.get(h, gen) < now()) {
    release_slot(flow);
  } else {
    egress_.row(h, gen) = kNoRule;
  }
}

void SwitchDevice::crash() {
  if (crashed_) return;
  crashed_ = true;
  ++epoch_;
  // Everything volatile dies with the process: the forwarding table, the
  // service queue (stale-epoch events count themselves as crash-dropped when
  // they fire), pending install completions, and pipeline registers.
  index_.clear();
  egress_.clear();
  install_tail_.clear();
  order_.clear();
  order_sorted_ = true;
  busy_until_ = 0;
  queue_depth_ = 0;
  queue_depth_gauge().set(0.0);
  if (pipeline_ != nullptr) pipeline_->on_crash(*this);
}

void SwitchDevice::restart() { crashed_ = false; }

}  // namespace p4u::p4rt
