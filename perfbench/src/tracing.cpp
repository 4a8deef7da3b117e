#include "tracing.hpp"

namespace perfbench {

void ShadowMonitor::on_rule_installed(p4u::net::NodeId node,
                                      p4u::net::FlowId flow,
                                      std::int32_t port) {
  timed([&] { monitor_.on_rule_installed(node, flow, port); });
}

void ShadowMonitor::on_link_state(p4u::net::LinkId link, p4u::net::NodeId a,
                                  p4u::net::NodeId b, bool up) {
  timed([&] { monitor_.on_link_state(link, a, b, up); });
}

void ShadowMonitor::on_switch_state(p4u::net::NodeId node, bool up) {
  timed([&] { monitor_.on_switch_state(node, up); });
}

void ClassClock::begin() {
  current_ = kNone;
  last_ = BenchClock::now();
  shadow_seen_ = shadow_ != nullptr ? shadow_->busy() : BenchClock::duration{};
}

void ClassClock::end() {
  charge(BenchClock::now());
  current_ = kNone;
}

void ClassClock::charge(BenchClock::time_point now) {
  BenchClock::duration spent = now - last_;
  if (shadow_ != nullptr) {
    const BenchClock::duration shadow_now = shadow_->busy();
    spent -= shadow_now - shadow_seen_;
    shadow_seen_ = shadow_now;
  }
  if (current_ != kNone) busy_[current_] += spent;
  last_ = now;
}

std::size_t ClassClock::pick(
    const std::vector<p4u::sim::ChoiceOption>& options) {
  charge(BenchClock::now());
  current_ = static_cast<std::size_t>(options.front().tag.cls);
  ++events_[current_];
  return 0;
}

bool ClassClock::coin(const p4u::sim::CoinPoint& cp, p4u::sim::Rng& rng) {
  return seeded_.coin(cp, rng);
}

p4u::sim::Duration ClassClock::jitter(const p4u::sim::CoinPoint& cp,
                                      p4u::sim::Duration max_extra,
                                      p4u::sim::Rng& rng) {
  return seeded_.jitter(cp, max_extra, rng);
}

}  // namespace perfbench
