// Golden-trace determinism regression: a pinned fat-tree P4Update scenario
// must produce, for each pinned seed, exactly the event sequence it produced
// when the digests below were captured. This is the guard rail for event-core
// changes (scheduler data structures, handler storage, packet moves): any
// reordering, double-run, or dropped event shifts the digest.
//
// The digests were captured from the pre-overhaul core
// (std::function handlers + std::priority_queue scheduler) and must never be
// re-pinned casually: a mismatch means observable behavior changed.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/scenario.hpp"
#include "harness/traffic.hpp"
#include "net/fattree.hpp"
#include "net/paths.hpp"
#include "net/topologies.hpp"
#include "obs/metrics.hpp"
#include "sim/schedule.hpp"
#include "sim/schedule_strategy.hpp"

namespace p4u::harness {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void mix_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

void mix_u64(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= v & 0xffu;
    h *= kFnvPrime;
    v >>= 8;
  }
}

/// FNV-1a-64 over the bed's full trace plus the scheduler's terminal state.
std::uint64_t trace_digest(TestBed& bed) {
  std::uint64_t h = kFnvOffset;
  for (const sim::TraceEntry& e : bed.fabric().trace().entries()) {
    mix_u64(h, static_cast<std::uint64_t>(e.at));
    mix_u64(h, static_cast<std::uint64_t>(e.kind));
    mix_u64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(e.node)));
    mix_u64(h, e.flow);
    mix_u64(h, static_cast<std::uint64_t>(e.a));
    mix_u64(h, static_cast<std::uint64_t>(e.b));
    mix_bytes(h, e.note.data(), e.note.size());
  }
  mix_u64(h, bed.simulator().executed());
  mix_u64(h, static_cast<std::uint64_t>(bed.simulator().now()));
  return h;
}

/// Runs one single-flow update on a K=4 fat-tree (edge-to-edge across pods,
/// new path forced around the old aggregation layer) and folds the full
/// trace plus the scheduler's terminal state into an FNV-1a-64 digest.
/// Straggler delays are on so the per-switch RNG streams are covered too.
/// With `strategy` set, the run goes through the pluggable-ordering path
/// instead of the simulator's no-strategy fast path.
std::uint64_t fattree_update_digest(std::uint64_t seed,
                                    sim::ScheduleStrategy* strategy = nullptr) {
  net::FatTree ft = net::fattree_topology(4);
  net::set_uniform_capacity(ft.graph, 100.0);

  TestBedParams params;
  params.seed = seed;
  params.switch_params.straggler_mean_ms = 100.0;
  params.strategy = strategy;
  TestBed bed(ft.graph, params);

  const net::NodeId src = ft.edge.front();
  const net::NodeId dst = ft.edge.back();
  const auto old_p = net::shortest_path(ft.graph, src, dst);
  EXPECT_TRUE(old_p.has_value());
  const auto new_p =
      net::shortest_path_avoiding(ft.graph, src, dst, {(*old_p)[1]});
  EXPECT_TRUE(new_p.has_value());
  EXPECT_NE(*old_p, *new_p);

  net::Flow f;
  f.ingress = src;
  f.egress = dst;
  f.id = net::flow_id_of(src, dst);
  f.size = 1.0;
  bed.deploy_flow(f, *old_p);
  bed.schedule_update_at(sim::milliseconds(10), f.id, *new_p);
  bed.run(sim::seconds(300));
  EXPECT_TRUE(bed.flow_db().duration(f.id, 2).has_value());
  return trace_digest(bed);
}

struct CongestionRun {
  std::uint64_t digest = 0;
  std::size_t defers = 0;
  std::size_t raises = 0;
};

/// Congestion-mode multi-flow batch on a capacity-tight K=4 fat-tree: one
/// gravity-sized flow per switch, all rerouted at once with the busiest
/// link at full capacity under both configurations, so the data-plane
/// schedulers defer moves for capacity (and P4Update raises priorities).
/// Each deferral decision sums link loads over a switch's forwarding
/// table, so the digest pins that floating-point summation order too.
CongestionRun congestion_batch_digest(SystemKind system, std::uint64_t seed) {
  net::FatTree ft = net::fattree_topology(4);
  net::set_uniform_capacity(ft.graph, 100.0);
  sim::Rng traffic_rng(seed);
  TrafficParams traffic;
  traffic.target_utilization = 1.0;
  const std::vector<TrafficFlow> flows =
      gravity_multiflow(ft.graph, traffic_rng, traffic);

  TestBedParams params;
  params.seed = seed;
  params.system = system;
  params.congestion_mode = true;
  params.monitor_capacity = true;
  params.switch_params.straggler_mean_ms = 100.0;
  TestBed bed(ft.graph, params);
  std::vector<std::pair<net::FlowId, net::Path>> batch;
  for (const TrafficFlow& tf : flows) {
    bed.deploy_flow(tf.flow, tf.old_path);
    batch.emplace_back(tf.flow.id, tf.new_path);
  }
  bed.schedule_batch_at(sim::milliseconds(10), std::move(batch));
  bed.run(sim::seconds(300));
  for (const TrafficFlow& tf : flows) {
    EXPECT_TRUE(bed.flow_db().duration(tf.flow.id, 2).has_value())
        << to_string(system) << " seed " << seed << " flow " << tf.flow.id;
  }

  CongestionRun r;
  r.digest = trace_digest(bed);
  r.defers = bed.fabric().trace().count(sim::TraceKind::kCongestionDefer);
  r.raises = bed.fabric().trace().count(sim::TraceKind::kPriorityRaised);
  return r;
}

struct GoldenCase {
  std::uint64_t seed;
  std::uint64_t digest;
};

// Captured from the pre-overhaul event core (see file comment). If this test
// fails after an intentional semantic change, re-capture by printing the
// digests below — but first rule out an accidental event reorder.
constexpr GoldenCase kGolden[] = {
    {1, 0x59a352d5069dd82eull},
    {7, 0xe2ff141c14603a3eull},
    {42, 0x5e7bebd929fc5582ull},
};

TEST(GoldenTraceTest, FattreeUpdateEventSequenceIsPinned) {
  for (const GoldenCase& c : kGolden) {
    const std::uint64_t got = fattree_update_digest(c.seed);
    EXPECT_EQ(got, c.digest)
        << "seed " << c.seed << ": event-sequence digest drifted (got 0x"
        << std::hex << got << ")";
  }
}

TEST(GoldenTraceTest, DigestIsStableAcrossRepeatedRuns) {
  // Same process, two fresh TestBeds: bit-identical digests (no hidden
  // global state leaks into the event order).
  EXPECT_EQ(fattree_update_digest(3), fattree_update_digest(3));
}

TEST(GoldenTraceTest, SeededStrategyReproducesPinnedDigests) {
  // The tentpole refactor's core promise: routing every pop and every
  // fault draw through an installed SeededStrategy is byte-identical to
  // the historical no-strategy fast path — same pinned digests, not
  // merely self-consistent ones.
  for (const GoldenCase& c : kGolden) {
    sim::SeededStrategy seeded;
    const std::uint64_t got = fattree_update_digest(c.seed, &seeded);
    EXPECT_EQ(got, c.digest)
        << "seed " << c.seed
        << ": SeededStrategy diverged from the pre-refactor core (got 0x"
        << std::hex << got << ")";
  }
}

TEST(GoldenTraceTest, RecordedScheduleIsByteIdenticalToDirectRun) {
  // Recording adds observation, never perturbation: wrapping the seeded
  // default in a RecordingStrategy must not move a single event.
  sim::SeededStrategy seeded;
  sim::RecordingStrategy recording(seeded);
  EXPECT_EQ(fattree_update_digest(kGolden[0].seed, &recording),
            kGolden[0].digest);
  // The run had no fault model, so only pick decisions were recorded; the
  // schedule must be non-trivial (co-enabled installs happen on a fat-tree).
  EXPECT_FALSE(recording.schedule().choices.empty());
}

struct CongestionGoldenCase {
  SystemKind system;
  std::uint64_t seed;
  std::uint64_t digest;
};

// Captured before the switch forwarding table moved from std::map to the
// FlowIndex-addressed flat table. Seeds chosen so every flow completes and
// the capacity gates fire (P4Update also raises priorities).
constexpr CongestionGoldenCase kCongestionGolden[] = {
    {SystemKind::kP4Update, 3, 0x02da627415f65b38ull},
    {SystemKind::kP4Update, 6, 0x65e767846938ef59ull},
    {SystemKind::kEzSegway, 3, 0x6eace067197be2eeull},
    {SystemKind::kEzSegway, 6, 0x9d2f90a9ac58d897ull},
};

TEST(GoldenTraceTest, CongestionModeBatchEventSequenceIsPinned) {
  for (const CongestionGoldenCase& c : kCongestionGolden) {
    const CongestionRun r = congestion_batch_digest(c.system, c.seed);
    EXPECT_GT(r.defers, 0u) << to_string(c.system) << " seed " << c.seed;
    if (c.system == SystemKind::kP4Update) {
      EXPECT_GT(r.raises, 0u) << "seed " << c.seed;
    }
    EXPECT_EQ(r.digest, c.digest)
        << to_string(c.system) << " seed " << c.seed
        << ": event-sequence digest drifted (got 0x" << std::hex << r.digest
        << ")";
  }
}

// --- Controller recovery -------------------------------------------------

/// The recovery counters every controller exports, in digest order.
constexpr const char* kRecoveryCounters[] = {
    "ctrl.recovery_resends",  "ctrl.recovery_repairs",
    "ctrl.recovery_gaveup",   "ctrl.recovery_stranded",
    "ctrl.recovery_reissues", "ctrl.recovery_redeploys",
};
constexpr std::size_t kRecoveryCounterCount =
    sizeof(kRecoveryCounters) / sizeof(kRecoveryCounters[0]);

enum class RecoveryBed {
  /// The chaos_property_test bed: fig1, 5% control drop, the new path's
  /// first interior hop cut mid-update for two seconds.
  kLinkDown,
  /// Same drop and recovery knobs, but the flow's egress crashes twice:
  /// mid-update (nothing routes around it, so the update is abandoned and
  /// reissued on restart) and again once the flow is idle (stranded, then
  /// redeployed across the restarted switch).
  kSwitchCrash,
};

struct RecoveryRun {
  std::uint64_t digest = 0;
  std::uint64_t counters[kRecoveryCounterCount] = {};
};

/// Runs one recovery-enabled fig1 update and folds the trace, every flow
/// history outcome and the recovery counter totals into one digest.
RecoveryRun recovery_digest(SystemKind system, RecoveryBed kind,
                            std::uint64_t seed) {
  net::NamedTopology topo = net::fig1_topology();
  TestBedParams params;
  params.seed = seed;
  params.system = system;
  params.fault_plan.model.control_drop_prob = 0.05;
  const net::NodeId egress = topo.old_path.back();
  if (kind == RecoveryBed::kLinkDown) {
    params.fault_plan.link_down_for(sim::milliseconds(15), topo.new_path[1],
                                    topo.new_path[2], sim::seconds(2));
  } else {
    params.fault_plan.switch_crash_for(sim::milliseconds(15), egress,
                                       sim::seconds(1));
    params.fault_plan.switch_crash_for(sim::seconds(20), egress,
                                       sim::milliseconds(500));
  }
  params.recovery.enabled = true;
  params.enable_retrigger = true;
  params.p4u_uim_watchdog = sim::milliseconds(500);
  params.p4u_wait_timeout = sim::milliseconds(500);
  TestBed bed(topo.graph, params);

  net::Flow f;
  f.ingress = topo.old_path.front();
  f.egress = egress;
  f.id = net::flow_id_of(f.ingress, f.egress);
  f.size = 1.0;
  bed.deploy_flow(f, topo.old_path);
  bed.schedule_update_at(sim::milliseconds(10), f.id, topo.new_path);
  bed.run(sim::seconds(120));
  EXPECT_TRUE(bed.flow_db().all_terminal())
      << to_string(system) << " seed " << seed;

  RecoveryRun r;
  r.digest = trace_digest(bed);
  for (const control::UpdateRecord& rec : bed.flow_db().history(f.id)) {
    mix_u64(r.digest, static_cast<std::uint64_t>(rec.version));
    mix_u64(r.digest, static_cast<std::uint64_t>(rec.outcome));
    mix_u64(r.digest, static_cast<std::uint64_t>(rec.state));
    mix_u64(r.digest, static_cast<std::uint64_t>(rec.issued_at));
    mix_u64(r.digest, static_cast<std::uint64_t>(rec.completed_at));
  }
  for (std::size_t i = 0; i < kRecoveryCounterCount; ++i) {
    r.counters[i] = bed.metrics().counter_total(kRecoveryCounters[i]);
    mix_u64(r.digest, r.counters[i]);
  }
  return r;
}

struct RecoveryGoldenCase {
  SystemKind system;
  RecoveryBed bed;
  std::uint64_t seed;
  std::uint64_t digest;
};

// Captured before the three controllers' recovery state machines were
// merged into faults::RecoveringController: the shared class must replay
// each system's recovery byte for byte.
constexpr RecoveryGoldenCase kRecoveryGolden[] = {
    {SystemKind::kP4Update, RecoveryBed::kLinkDown, 1, 0xa390150ff794b4dbull},
    {SystemKind::kP4Update, RecoveryBed::kLinkDown, 4, 0xbb484594a57aa67cull},
    {SystemKind::kP4Update, RecoveryBed::kSwitchCrash, 1,
     0x71d14875aaf7d0b7ull},
    {SystemKind::kP4Update, RecoveryBed::kSwitchCrash, 4,
     0x8c26a80a25901969ull},
    {SystemKind::kEzSegway, RecoveryBed::kLinkDown, 1, 0xf89a676251a6f8adull},
    {SystemKind::kEzSegway, RecoveryBed::kLinkDown, 4, 0x52784a55994b0654ull},
    {SystemKind::kEzSegway, RecoveryBed::kSwitchCrash, 1,
     0x81a2ec13f57ca659ull},
    {SystemKind::kEzSegway, RecoveryBed::kSwitchCrash, 4,
     0xc914c510fec5e648ull},
    // Central has no switch-to-switch messages, so the control-drop coin
    // never fires and both seeds replay the same run.
    {SystemKind::kCentral, RecoveryBed::kLinkDown, 1, 0x5f6f013dfba21f0bull},
    {SystemKind::kCentral, RecoveryBed::kLinkDown, 4, 0x5f6f013dfba21f0bull},
    {SystemKind::kCentral, RecoveryBed::kSwitchCrash, 1, 0x2665dfc5fc0d6a07ull},
    {SystemKind::kCentral, RecoveryBed::kSwitchCrash, 4, 0x2665dfc5fc0d6a07ull},
};

TEST(GoldenTraceTest, RecoveryEventSequenceIsPinned) {
  for (const RecoveryGoldenCase& c : kRecoveryGolden) {
    const RecoveryRun r = recovery_digest(c.system, c.bed, c.seed);
    const char* bed = c.bed == RecoveryBed::kLinkDown ? "link-down" : "crash";
    const std::string where =
        std::string(to_string(c.system)) + " " + bed + " seed " +
        std::to_string(c.seed);
    // The pin is only worth having if the recovery paths actually ran.
    const auto& [resends, repairs, gaveup, stranded, reissues, redeploys] =
        r.counters;
    if (c.bed == RecoveryBed::kLinkDown) {
      EXPECT_GT(repairs, 0u) << where;
    } else {
      EXPECT_GT(resends, 0u) << where;
      EXPECT_GT(gaveup, 0u) << where;
      EXPECT_GT(stranded, 0u) << where;
      EXPECT_GT(reissues, 0u) << where;
      EXPECT_GT(redeploys, 0u) << where;
    }
    EXPECT_EQ(r.digest, c.digest)
        << where << ": recovery digest drifted (got 0x" << std::hex
        << r.digest << ")";
  }
}

}  // namespace
}  // namespace p4u::harness
