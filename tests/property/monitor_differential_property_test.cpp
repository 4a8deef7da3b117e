// Property: the incremental InvariantMonitor (O(path) loop check with
// per-flow cycle anchors) is exact. Over 24 seeds of four scenario families
// — the Fig. 2 inconsistency demo (ez-Segway loops), Fig. 7-style gravity
// multi-flow batches with the capacity check on, chaos (control drops, a
// link outage and a switch crash: faulted walks and excuses), and
// steady-state churn (mid-run deploys, silent rule removals) — a
// brute-force ReferenceMonitor subscribed to the same bed, watching the
// same flows, reports identical Violations and an identical findings()
// sequence, both during the run and after a final check_all(). The update
// systems rarely loop, so a fifth family writes random rules straight into
// a fabric: cycles form, break and coexist at every step.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "harness/churn.hpp"
#include "harness/scenario.hpp"
#include "harness/traffic.hpp"
#include "net/fattree.hpp"
#include "net/topologies.hpp"
#include "net/topology_zoo.hpp"
#include "reference_monitor.hpp"
#include "sim/random.hpp"

namespace p4u::harness {
namespace {

constexpr int kSeeds = 24;
constexpr SystemKind kSystems[] = {SystemKind::kP4Update,
                                   SystemKind::kEzSegway,
                                   SystemKind::kCentral};

/// Copies the bed monitor's watch set into the reference. Subscribed after
/// the bed's monitor and before the reference, it syncs on every
/// notification either monitor acts on, so the reference starts watching a
/// flow before its first check after the bed's watch_flow — exactly when
/// the bed's monitor does.
class WatchMirror final : public p4rt::FabricObserver {
 public:
  WatchMirror(const InvariantMonitor& from, ReferenceMonitor& to)
      : from_(from), to_(to) {}
  void on_rule_installed(net::NodeId, net::FlowId, std::int32_t) override {
    sync();
  }
  void on_link_state(net::LinkId, net::NodeId, net::NodeId, bool) override {
    sync();
  }
  void on_switch_state(net::NodeId, bool) override { sync(); }

 private:
  void sync() {
    const std::vector<net::FlowId>& ids = from_.watched_ids();
    if (ids.size() == mirrored_.size()) return;
    for (const net::FlowId id : ids) {
      if (mirrored_.insert(id).second) to_.watch_flow(*from_.watched(id));
    }
  }

  const InvariantMonitor& from_;
  ReferenceMonitor& to_;
  std::set<net::FlowId> mirrored_;
};

/// The reference monitor riding along on one bed. Build it right after the
/// bed, before any flow is deployed.
class Differential {
 public:
  Differential(TestBed& bed, bool check_capacity)
      : bed_(bed),
        ref_(bed.fabric(), check_capacity),
        mirror_(bed.monitor(), ref_),
        mirror_handle_(bed.fabric().subscribe(&mirror_)) {
    ref_.attach();
  }

  /// Asserts agreement after the run, then after a full check_all().
  InvariantMonitor::Violations expect_agreement() {
    expect_same("after run");
    bed_.monitor().check_all();
    ref_.check_all();
    expect_same("after check_all");
    return bed_.monitor().violations();
  }

 private:
  void expect_same(const char* when) {
    SCOPED_TRACE(when);
    const InvariantMonitor::Violations& a = bed_.monitor().violations();
    const ReferenceMonitor::Violations& b = ref_.violations();
    EXPECT_EQ(a.loops, b.loops);
    EXPECT_EQ(a.blackholes, b.blackholes);
    EXPECT_EQ(a.capacity, b.capacity);
    EXPECT_EQ(a.faulted_walks, b.faulted_walks);
    EXPECT_EQ(bed_.monitor().findings(), ref_.findings());
  }

  TestBed& bed_;
  ReferenceMonitor ref_;
  WatchMirror mirror_;
  p4rt::ObserverHandle mirror_handle_;
};

void add_into(InvariantMonitor::Violations& sum,
              const InvariantMonitor::Violations& v) {
  sum.loops += v.loops;
  sum.blackholes += v.blackholes;
  sum.capacity += v.capacity;
  sum.faulted_walks += v.faulted_walks;
}

TestBedParams bed_params(SystemKind system, int seed) {
  TestBedParams params;
  params.system = system;
  params.seed = static_cast<std::uint64_t>(seed);
  params.trace_enabled = false;
  params.measure_prep_wallclock = false;
  return params;
}

/// 5% control-message drops with controller recovery on.
void add_drops_and_recovery(TestBedParams& params) {
  params.fault_plan.model.control_drop_prob = 0.05;
  params.recovery.enabled = true;
  params.enable_retrigger = true;
  params.p4u_uim_watchdog = sim::milliseconds(500);
  params.p4u_wait_timeout = sim::milliseconds(500);
}

/// Deploys `flows` on their old paths, reroutes them in one batch at 10 ms
/// and runs the bed to quiescence.
void run_batch(TestBed& bed, const std::vector<TrafficFlow>& flows) {
  std::vector<std::pair<net::FlowId, net::Path>> batch;
  for (const TrafficFlow& tf : flows) {
    bed.deploy_flow(tf.flow, tf.old_path);
    batch.emplace_back(tf.flow.id, tf.new_path);
  }
  bed.schedule_batch_at(sim::milliseconds(10), std::move(batch));
  bed.run(sim::seconds(300));
}

TEST(MonitorDifferentialProperty, Fig2InconsistencyAgrees) {
  InvariantMonitor::Violations sum;
  for (int seed = 0; seed < kSeeds; ++seed) {
    for (const SystemKind system : kSystems) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " " + to_string(system));
      net::NamedTopology topo = net::fig2_topology();
      TestBedParams params = bed_params(system, seed);
      params.ctrl_latency_model = CtrlLatencyModel::kFixed;
      params.fixed_ctrl_latency = sim::milliseconds(5);
      TestBed bed(topo.graph, params);
      Differential diff(bed, params.monitor_capacity);

      net::Flow flow;
      flow.ingress = 0;
      flow.egress = 4;
      flow.id = net::flow_id_of(0, 4);
      flow.size = 1.0;
      const net::Path config_b{0, 1, 2, 4};
      bed.deploy_flow(flow, {0, 1, 2, 3, 4});
      // Config (b) is issued with delayed control messages while the
      // controller believes it applied; (c) is issued on top (§4.1).
      bed.simulator().schedule_at(sim::milliseconds(100), [&] {
        bed.channel().set_extra_outbound_delay(sim::milliseconds(400));
        bed.issue_update_now(flow.id, config_b);
        bed.channel().set_extra_outbound_delay(0);
        bed.force_belief(flow.id, config_b);
      });
      bed.schedule_update_at(sim::milliseconds(150), flow.id,
                             {0, 3, 1, 2, 4});
      bed.run(sim::seconds(30));
      add_into(sum, diff.expect_agreement());
    }
  }
  EXPECT_GT(sum.loops, 0u) << "ez-Segway's Fig. 2 loop must be exercised";
}

TEST(MonitorDifferentialProperty, MultiFlowWithCapacityAgrees) {
  InvariantMonitor::Violations sum;
  for (int seed = 0; seed < kSeeds; ++seed) {
    const SystemKind system = kSystems[seed % 3];
    SCOPED_TRACE("seed " + std::to_string(seed) + " " + to_string(system));
    net::Graph g = seed % 2 == 0 ? net::b4_topology()
                                 : net::internet2_topology();
    net::set_uniform_capacity(g, 100.0);
    sim::Rng rng(static_cast<std::uint64_t>(seed) * 6151 + 3);
    TrafficParams traffic;
    traffic.target_utilization = 0.95;
    const std::vector<TrafficFlow> flows = gravity_multiflow(g, rng, traffic);

    TestBedParams params = bed_params(system, seed);
    params.monitor_capacity = true;
    TestBed bed(g, params);
    Differential diff(bed, params.monitor_capacity);
    run_batch(bed, flows);
    add_into(sum, diff.expect_agreement());
  }
  EXPECT_GT(sum.capacity, 0u) << "transient overloads must be exercised";
}

TEST(MonitorDifferentialProperty, ChaosAgrees) {
  InvariantMonitor::Violations sum;
  for (int seed = 0; seed < kSeeds; ++seed) {
    const SystemKind system = kSystems[seed % 3];
    SCOPED_TRACE("seed " + std::to_string(seed) + " " + to_string(system));
    net::Graph g = net::b4_topology();
    net::set_uniform_capacity(g, 100.0);
    sim::Rng rng(static_cast<std::uint64_t>(seed) ^ 0x7AFF1Cull);
    const std::vector<TrafficFlow> flows = gravity_multiflow(g, rng);

    TestBedParams params = bed_params(system, seed);
    add_drops_and_recovery(params);
    // One link outage and one switch crash mid-update, both healing.
    sim::Rng chaos(static_cast<std::uint64_t>(seed) ^ 0xC4A05ull);
    const net::Link& l =
        g.link(static_cast<net::LinkId>(chaos.uniform(g.link_count())));
    params.fault_plan.link_down_for(
        sim::milliseconds(12 + static_cast<sim::Time>(chaos.uniform(40))),
        l.a, l.b, sim::seconds(2));
    params.fault_plan.switch_crash_for(
        sim::milliseconds(12 + static_cast<sim::Time>(chaos.uniform(40))),
        static_cast<net::NodeId>(chaos.uniform(g.node_count())),
        sim::seconds(2));
    TestBed bed(g, params);
    Differential diff(bed, params.monitor_capacity);
    run_batch(bed, flows);
    add_into(sum, diff.expect_agreement());
  }
  EXPECT_GT(sum.faulted_walks, 0u) << "fault excuses must be exercised";
}

TEST(MonitorDifferentialProperty, ChurnAgrees) {
  net::FatTree ft = net::fattree_topology(4);
  net::set_uniform_capacity(ft.graph, 100.0);
  ChurnParams churn;
  churn.pairs = 8;
  churn.initial_flows = 16;
  churn.arrivals_per_sec = 25.0;
  churn.duration = sim::seconds(4);
  churn.endpoints = ft.edge;
  for (int seed = 0; seed < kSeeds; ++seed) {
    const SystemKind system = kSystems[seed % 3];
    SCOPED_TRACE("seed " + std::to_string(seed) + " " + to_string(system));
    const ChurnWorkload wl = make_churn_workload(
        ft.graph, static_cast<std::uint64_t>(seed), churn);
    TestBedParams params = bed_params(system, seed);
    params.admission.max_inflight_global = 32;
    params.admission.max_inflight_per_flow = 1;
    params.admission.coalesce = true;
    add_drops_and_recovery(params);
    TestBed bed(ft.graph, params);
    Differential diff(bed, params.monitor_capacity);
    install_churn(bed, wl);
    bed.run(sim::seconds(300));
    diff.expect_agreement();
  }
}

TEST(MonitorDifferentialProperty, RandomRuleWritesAgree) {
  InvariantMonitor::Violations sum;
  for (int seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    net::Graph g =
        seed % 2 == 0 ? net::fig1_topology().graph : net::b4_topology();
    net::set_uniform_capacity(g, 2.5);
    sim::Simulator sim;
    p4rt::Fabric fabric(sim, g, p4rt::SwitchParams{},
                        static_cast<std::uint64_t>(seed));
    InvariantMonitor mon(fabric, true);
    ReferenceMonitor ref(fabric, true);
    mon.attach();
    ref.attach();
    sim::Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 1);
    const auto pick_node = [&] {
      return static_cast<net::NodeId>(rng.uniform(g.node_count()));
    };
    constexpr net::FlowId kFlows = 4;
    for (int op = 0; op < 600; ++op) {
      const auto flow = static_cast<net::FlowId>(1 + rng.uniform(kFlows));
      const net::NodeId node = pick_node();
      const std::uint64_t kind = rng.uniform(100);
      if (kind < 70) {
        // Mostly a neighbour port; sometimes local delivery or a port
        // that points nowhere.
        const auto degree = g.neighbors(node).size();
        const std::uint64_t r = rng.uniform(degree + 2);
        const std::int32_t port =
            r < degree ? static_cast<std::int32_t>(r)
            : r == degree ? p4rt::SwitchDevice::kLocalPort
                          : static_cast<std::int32_t>(degree + 3);
        fabric.sw(node).set_rule_now(flow, port);
      } else if (kind < 85) {
        fabric.sw(node).remove_rule(flow);  // silent
      } else if (kind < 90) {
        fabric.sw(node).crash();  // silent table wipe
        fabric.sw(node).restart();
      } else if (kind < 97) {
        // Watch (or re-watch) a flow; stale cycles may already exist.
        net::Flow f;
        f.id = flow;
        f.ingress = node;
        f.egress = pick_node();
        f.size = 1.0;
        mon.watch_flow(f);
        ref.watch_flow(f);
      } else {
        mon.check_flow(flow);
        ref.check_flow(flow);
      }
    }
    mon.check_all();
    ref.check_all();
    EXPECT_EQ(mon.violations().loops, ref.violations().loops);
    EXPECT_EQ(mon.violations().blackholes, ref.violations().blackholes);
    EXPECT_EQ(mon.violations().capacity, ref.violations().capacity);
    EXPECT_EQ(mon.violations().faulted_walks, ref.violations().faulted_walks);
    EXPECT_EQ(mon.findings(), ref.findings());
    add_into(sum, mon.violations());
  }
  EXPECT_GT(sum.loops, 0u);
  EXPECT_GT(sum.blackholes, 0u);
}

}  // namespace
}  // namespace p4u::harness
