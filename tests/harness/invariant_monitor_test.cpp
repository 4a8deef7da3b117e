#include "harness/invariant_monitor.hpp"

#include <gtest/gtest.h>

#include "net/topologies.hpp"
#include "obs/metrics.hpp"

namespace p4u::harness {
namespace {

struct Env {
  Env() {
    net::set_uniform_capacity(topo.graph, 2.0);
    fabric = std::make_unique<p4rt::Fabric>(sim, topo.graph,
                                            p4rt::SwitchParams{}, 1);
    monitor = std::make_unique<InvariantMonitor>(*fabric, true);
  }
  net::Flow flow(net::NodeId src, net::NodeId dst, double size,
                 net::FlowId id) {
    net::Flow f;
    f.id = id;
    f.ingress = src;
    f.egress = dst;
    f.size = size;
    monitor->watch_flow(f);
    return f;
  }
  sim::Simulator sim;
  net::NamedTopology topo = net::fig1_topology();
  std::unique_ptr<p4rt::Fabric> fabric;
  std::unique_ptr<InvariantMonitor> monitor;
};

TEST(InvariantMonitorTest, DetectsLoop) {
  Env env;
  env.flow(0, 7, 1.0, 1);
  env.fabric->sw(0).set_rule_now(1, env.topo.graph.port_of(0, 4));
  env.fabric->sw(4).set_rule_now(1, env.topo.graph.port_of(4, 2));
  env.fabric->sw(2).set_rule_now(1, env.topo.graph.port_of(2, 3));
  env.fabric->sw(3).set_rule_now(1, env.topo.graph.port_of(3, 4));  // loop!
  EXPECT_TRUE(env.monitor->has_loop(1));
  env.monitor->check_flow(1);
  EXPECT_GE(env.monitor->violations().loops, 1u);
}

TEST(InvariantMonitorTest, UnreachableStaleCycleStillCountsAsLoop) {
  // The forwarding-graph definition (§5) forbids any cycle, reachable from
  // the ingress or not.
  Env env;
  env.flow(0, 7, 1.0, 1);
  env.fabric->sw(0).set_rule_now(1, env.topo.graph.port_of(0, 4));
  env.fabric->sw(4).set_rule_now(1, env.topo.graph.port_of(4, 2));
  env.fabric->sw(2).set_rule_now(1, p4rt::SwitchDevice::kLocalPort);
  env.fabric->sw(5).set_rule_now(1, env.topo.graph.port_of(5, 6));
  env.fabric->sw(6).set_rule_now(1, env.topo.graph.port_of(6, 5));
  EXPECT_TRUE(env.monitor->has_loop(1));
}

TEST(InvariantMonitorTest, DetectsBlackholeFromIngressOnly) {
  Env env;
  env.flow(0, 7, 1.0, 1);
  env.fabric->sw(0).set_rule_now(1, env.topo.graph.port_of(0, 4));
  // Node 4 has no rule: reachable blackhole.
  EXPECT_TRUE(env.monitor->has_blackhole(1));
  env.fabric->sw(4).set_rule_now(1, env.topo.graph.port_of(4, 2));
  env.fabric->sw(2).set_rule_now(1, env.topo.graph.port_of(2, 7));
  env.fabric->sw(7).set_rule_now(1, p4rt::SwitchDevice::kLocalPort);
  EXPECT_FALSE(env.monitor->has_blackhole(1));
  // A dormant ruleless node elsewhere is NOT a blackhole.
  env.fabric->sw(5).remove_rule(1);
  EXPECT_FALSE(env.monitor->has_blackhole(1));
}

TEST(InvariantMonitorTest, DetectsCapacityOverload) {
  Env env;
  env.flow(0, 2, 1.5, 1);
  env.flow(4, 2, 1.5, 2);
  // Both flows on directed link 4->2 (capacity 2.0 < 3.0).
  env.fabric->sw(0).set_rule_now(1, env.topo.graph.port_of(0, 4));
  env.fabric->sw(4).set_rule_now(1, env.topo.graph.port_of(4, 2));
  env.fabric->sw(2).set_rule_now(1, p4rt::SwitchDevice::kLocalPort);
  env.fabric->sw(4).set_rule_now(2, env.topo.graph.port_of(4, 2));
  env.fabric->sw(2).set_rule_now(2, p4rt::SwitchDevice::kLocalPort);
  const auto overloads = env.monitor->capacity_overloads();
  ASSERT_EQ(overloads.size(), 1u);
  EXPECT_NE(overloads[0].find("4->2"), std::string::npos);
}

TEST(InvariantMonitorTest, AttachChainsIntoRuleInstallHook) {
  Env env;
  env.flow(0, 7, 1.0, 1);
  env.monitor->attach();
  // Installing a rule that forms a loop triggers the check automatically.
  env.fabric->sw(0).set_rule_now(1, env.topo.graph.port_of(0, 4));
  env.fabric->sw(4).set_rule_now(1, env.topo.graph.port_of(4, 2));
  env.fabric->sw(2).set_rule_now(1, env.topo.graph.port_of(2, 3));
  env.fabric->sw(3).set_rule_now(1, env.topo.graph.port_of(3, 4));
  EXPECT_GE(env.monitor->violations().loops, 1u);
  EXPECT_FALSE(env.monitor->findings().empty());
}

TEST(InvariantMonitorTest, ExportsPerInvariantViolationCounters) {
  Env env;
  env.flow(0, 7, 1.0, 1);
  env.fabric->sw(0).set_rule_now(1, env.topo.graph.port_of(0, 4));
  env.fabric->sw(4).set_rule_now(1, env.topo.graph.port_of(4, 2));
  env.fabric->sw(2).set_rule_now(1, env.topo.graph.port_of(2, 3));
  env.fabric->sw(3).set_rule_now(1, env.topo.graph.port_of(3, 4));  // loop
  env.monitor->check_flow(1);
  const auto v = env.monitor->violations();
  ASSERT_GE(v.loops, 1u);

  obs::MetricsRegistry m;
  env.monitor->export_violations(m);
  EXPECT_EQ(m.counter("monitor.violation", {{"kind", "loop"}}).value(),
            v.loops);
  // Zero cells are exported too, so every report has the full breakdown.
  EXPECT_EQ(m.counter("monitor.violation", {{"kind", "blackhole"}}).value(),
            0u);
  EXPECT_EQ(m.counter("monitor.violation", {{"kind", "capacity"}}).value(),
            0u);
  EXPECT_EQ(m.counter("monitor.faulted_walks").value(), v.faulted_walks);
}

TEST(InvariantMonitorTest, ExportIsIdempotentAcrossRepeatedCalls) {
  // collect_metrics() may run more than once per bed; the top-up pattern
  // must not double-count violations already exported.
  Env env;
  env.flow(0, 7, 1.0, 1);
  env.fabric->sw(0).set_rule_now(1, env.topo.graph.port_of(0, 4));
  env.fabric->sw(4).set_rule_now(1, env.topo.graph.port_of(4, 2));
  env.fabric->sw(2).set_rule_now(1, env.topo.graph.port_of(2, 3));
  env.fabric->sw(3).set_rule_now(1, env.topo.graph.port_of(3, 4));
  env.monitor->check_flow(1);
  const auto first = env.monitor->violations().loops;

  obs::MetricsRegistry m;
  env.monitor->export_violations(m);
  env.monitor->export_violations(m);
  EXPECT_EQ(m.counter("monitor.violation", {{"kind", "loop"}}).value(),
            first);

  // New violations after an export are topped up, not re-added.
  env.monitor->check_flow(1);
  env.monitor->export_violations(m);
  EXPECT_EQ(m.counter("monitor.violation", {{"kind", "loop"}}).value(),
            env.monitor->violations().loops);
}

// --- Incremental loop check (attached monitor) -----------------------------
//
// An attached monitor checks each watched install in O(path): it keeps one
// anchor per live cycle and walks from the written switch. These tests pin
// the edge cases of that bookkeeping against the full-scan has_loop.

/// Env with the monitor attached and flow 1 (0 -> 7) watched.
struct AttachedEnv : Env {
  AttachedEnv() {
    flow(0, 7, 1.0, 1);
    monitor->attach();
  }
  /// Writes flow 1's rule at `node` toward `next` (or local delivery when
  /// next < 0); returns whether that install's check counted a loop.
  bool install(net::NodeId node, net::NodeId next) {
    const auto before = monitor->violations().loops;
    fabric->sw(node).set_rule_now(
        1, next < 0 ? p4rt::SwitchDevice::kLocalPort
                    : topo.graph.port_of(node, next));
    const bool counted = monitor->violations().loops != before;
    EXPECT_EQ(counted, monitor->has_loop(1)) << "install at " << node;
    return counted;
  }
};

TEST(InvariantMonitorTest, TwoCyclesOneBrokenByReinstallOtherKeepsCounting) {
  AttachedEnv env;
  EXPECT_FALSE(env.install(5, 6));
  EXPECT_TRUE(env.install(6, 5));  // cycle 5 -> 6 -> 5
  EXPECT_TRUE(env.install(4, 2));
  EXPECT_TRUE(env.install(2, 3));
  EXPECT_TRUE(env.install(3, 4));  // second cycle 4 -> 2 -> 3 -> 4
  // Reinstalling 3 breaks 4 -> 2 -> 3 -> 4; 5 -> 6 -> 5 still counts.
  EXPECT_TRUE(env.install(3, -1));
  EXPECT_TRUE(env.install(0, 4));
  // Breaking the last cycle ends the loop verdict.
  EXPECT_FALSE(env.install(6, 7));
  EXPECT_FALSE(env.install(7, -1));
}

TEST(InvariantMonitorTest, CycleBrokenSilentlyByRemoveRuleStopsCounting) {
  AttachedEnv env;
  EXPECT_FALSE(env.install(4, 2));
  EXPECT_FALSE(env.install(2, 3));
  EXPECT_TRUE(env.install(3, 4));
  // remove_rule notifies no observer; the next install must re-validate.
  env.fabric->sw(3).remove_rule(1);
  EXPECT_FALSE(env.install(0, 4));
  // The same edge restored closes the cycle again.
  EXPECT_TRUE(env.install(3, 4));
}

TEST(InvariantMonitorTest, CycleBrokenSilentlyByCrashStopsCounting) {
  AttachedEnv env;
  EXPECT_FALSE(env.install(4, 2));
  EXPECT_FALSE(env.install(2, 3));
  EXPECT_TRUE(env.install(3, 4));
  // A direct crash wipes switch 2's table without a notification.
  env.fabric->sw(2).crash();
  EXPECT_FALSE(env.install(0, 4));
  env.fabric->sw(2).restart();
  EXPECT_TRUE(env.install(2, 3));
}

TEST(InvariantMonitorTest, StaleCycleAtWatchIsCaughtByLazySeed) {
  Env env;
  env.monitor->attach();
  // Flow 1 is not watched yet: these installs go unchecked.
  env.fabric->sw(5).set_rule_now(1, env.topo.graph.port_of(5, 6));
  env.fabric->sw(6).set_rule_now(1, env.topo.graph.port_of(6, 5));
  EXPECT_EQ(env.monitor->violations().loops, 0u);
  env.flow(0, 7, 1.0, 1);
  // The first check after watch_flow is a full scan: the unreachable
  // cycle counts although the install is nowhere near it.
  env.fabric->sw(0).set_rule_now(1, env.topo.graph.port_of(0, 4));
  EXPECT_EQ(env.monitor->violations().loops, 1u);
  env.fabric->sw(4).set_rule_now(1, env.topo.graph.port_of(4, 2));
  EXPECT_EQ(env.monitor->violations().loops, 2u);
}

TEST(InvariantMonitorTest, SamePortRewriteOnCycleCountsOnce) {
  AttachedEnv env;
  EXPECT_FALSE(env.install(4, 2));
  EXPECT_FALSE(env.install(2, 3));
  EXPECT_TRUE(env.install(3, 4));
  // Rewriting each cycle member with its current port keeps one loop
  // verdict per check (not one per anchor).
  const auto before = env.monitor->violations().loops;
  EXPECT_TRUE(env.install(2, 3));
  EXPECT_TRUE(env.install(4, 2));
  EXPECT_TRUE(env.install(3, 4));
  EXPECT_EQ(env.monitor->violations().loops, before + 3);
  EXPECT_FALSE(env.install(2, 7));
}

TEST(InvariantMonitorTest, InstallIntoExistingCycleIsNotANewCycle) {
  AttachedEnv env;
  EXPECT_FALSE(env.install(5, 6));
  EXPECT_TRUE(env.install(6, 5));
  // 4 feeds the cycle but is not on it: the walk from 4 never returns.
  EXPECT_TRUE(env.install(4, 5));
  EXPECT_FALSE(env.install(6, 7));
}

}  // namespace
}  // namespace p4u::harness
