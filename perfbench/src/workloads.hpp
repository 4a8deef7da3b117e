// The benchmark's workloads and the bed runners that run them.
//
// Every workload is a table of harness::RunSpec cells, the same specs the
// campaigns run; one pass runs every (spec, run index) bed of the table on
// this thread, one bed at a time. The bed runners mirror the per-seed job
// bodies of harness::execute_run step for step (the parity test holds them
// to the same per-seed sample), with spans around each phase:
//
//   pass -> workload-gen / paths             (per pass: topologies, detours)
//   pass -> bed -> workload-gen / paths / ctor / deploy / run / harvest
//
// A traced bed additionally runs under ClassClock and a ShadowMonitor
// (tracing.hpp); its schedule, and so its request ledger, is identical.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/invariant_monitor.hpp"
#include "harness/system_factory.hpp"
#include "spans.hpp"
#include "speed_probe.hpp"
#include "tracing.hpp"

namespace perfbench {

enum class Workload { kFt16Batch, kFt8Churn, kFig7Cells };

inline constexpr std::array<Workload, 3> kWorkloads = {
    Workload::kFt16Batch, Workload::kFt8Churn, Workload::kFig7Cells};

[[nodiscard]] const char* to_string(Workload w);
[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);

/// Host seconds one pass takes on the reference machine (4-core x86-64,
/// Release build). A run measures ceil(seconds / nominal) passes, at least
/// kMinPasses, so every run of a workload pools the same number of beds.
[[nodiscard]] double nominal_pass_seconds(Workload w);
inline constexpr int kMinPasses = 3;
/// Untraced pass i of a run replays workload seed `seed * kPassSeedStride +
/// i`; traced passes all replay i = 0. Runs are capped well below 1000
/// passes (--seconds <= 600).
inline constexpr std::uint64_t kPassSeedStride = 1000;
/// The workload seed whose request-ledger digests perfbench/
/// ledger_digests.json records; every run replays it first.
inline constexpr std::uint64_t kReferenceSeed = 1;

/// Whether every request of the workload must reach a terminal state, as
/// its campaign gates (bench/scale, bench/churn). The Fig. 7 cells run the
/// §9.2 setup without controller recovery, where a congested multi-flow
/// batch can leave an update open; bench/fig7_update_time reports such a
/// bed as an incomplete run, and so does this benchmark (the open states
/// are part of the ledger digest).
[[nodiscard]] bool gates_liveness(Workload w);

/// Host-time phases of one bed, in seconds, without the probe's slices.
struct BedTimes {
  double gen_s = 0.0;      // workload generation (traffic, churn stream)
  double paths_s = 0.0;    // direct net:: path computations
  double ctor_s = 0.0;     // TestBed construction + event-pool reservation
  double deploy_s = 0.0;   // initial deploy + scheduling the stimulus
  double run_s = 0.0;      // TestBed::run
  double harvest_s = 0.0;  // collect_metrics + registry merge
  double total_s = 0.0;    // the whole bed
  /// Probe slices run inside the bed, and their host seconds (already
  /// taken out of the phases and the total).
  std::size_t probe_slices = 0;
  double probe_s = 0.0;
  std::uint64_t gen_calls = 0;     // workload-generation calls
  std::uint64_t ctor_calls = 0;    // TestBed constructions
  std::uint64_t deploy_calls = 0;  // deploy_flow calls before the run
};

/// Exact counts read from one bed after its run.
struct BedCounts {
  std::uint64_t events = 0;
  std::uint64_t pending_peak = 0;
  std::uint64_t fabric_tx = 0;
  std::uint64_t fabric_rx = 0;
  std::uint64_t fabric_drop = 0;
  std::uint64_t rule_installs = 0;
  std::uint64_t admission_dispatched = 0;
  std::uint64_t admission_coalesced = 0;
  std::uint64_t admission_refused = 0;
  std::uint64_t admission_queued_peak = 0;
  std::uint64_t admission_inflight_peak = 0;
  std::uint64_t requests_completed = 0;
  std::uint64_t preflight_safe = 0;
  std::uint64_t preflight_unsafe = 0;
  std::uint64_t preflight_unknown = 0;
  std::uint64_t recovery_resends = 0;
  std::uint64_t recovery_repairs = 0;
  std::uint64_t recovery_gaveup = 0;
};

/// What a traced bed adds: per-event-class host time and the shadow
/// monitor's cost.
struct BedTrace {
  std::array<std::uint64_t, kEventClasses> class_events{};
  std::array<double, kEventClasses> class_busy_s{};
  std::uint64_t monitor_calls = 0;
  double monitor_busy_s = 0.0;
  /// The shadow monitor found exactly the bed monitor's violations.
  bool shadow_agrees = true;
};

struct BedResult {
  std::string label;  // "<slug>#<seed>"
  p4u::harness::SystemKind system = p4u::harness::SystemKind::kP4Update;
  std::uint64_t seed = 0;
  int run_index = 0;  // seed - spec.base_seed
  /// The per-seed sample harness::execute_run reports for the same spec
  /// and run index (absent = the run did not complete).
  std::optional<double> sample;
  BedTimes times;
  /// kReferenceSliceSeconds / the mean probe slice time over the bed, or
  /// the pass's speed_scale for a bed with fewer than kMinBedSlices
  /// slices (1 without a probe): times * speed_scale are reference-speed
  /// seconds.
  double speed_scale = 1.0;
  BedCounts counts;
  std::optional<BedTrace> trace;
  p4u::harness::InvariantMonitor::Violations violations;
  /// FNV-1a over (flow, version, kind, submit, finish, state) of every
  /// request in the bed's ledger, in ledger order.
  std::uint64_t ledger_digest = 0;
  std::uint64_t requests = 0;
  std::uint64_t requests_terminal = 0;
  std::uint64_t reroutes = 0;         // reroute requests submitted
  std::uint64_t reroutes_failed = 0;  // rolled back, abandoned or open
  /// P4Update only: submit -> settle of every reroute that settled on its
  /// own (completed, rolled back or abandoned; superseded ones excluded).
  std::vector<double> vt_ms;
};

struct BedOptions {
  SpanLog* spans = nullptr;  // required
  SpanId parent = 0;
  bool traced = false;
  /// Samples the host's speed between the bed's steps (null = not at all;
  /// the bed's run is then one TestBed::run call).
  SpeedProbe* probe = nullptr;
};

/// Runs bed `run_index` of `spec` (seed = spec.base_seed + run_index).
/// Supports the kScale, kChurn, kSingleFlow and kMultiFlow families.
[[nodiscard]] BedResult run_bed(const p4u::harness::RunSpec& spec,
                                int run_index, const BedOptions& opt);

/// One pass of a workload: its spec table, built from the seed, and the
/// number of beds per spec.
struct PassPlan {
  std::vector<p4u::harness::RunSpec> specs;
  double gen_s = 0.0;    // building topologies and specs
  std::uint64_t gen_calls = 0;
  double paths_s = 0.0;  // detour paths computed for the specs
};

/// Builds the pass's spec table for workload seed `seed`. Records
/// workload-gen / paths spans under `parent`.
[[nodiscard]] PassPlan make_plan(Workload w, std::uint64_t seed, SpanLog& spans,
                                 SpanId parent);

struct PassResult {
  std::vector<BedResult> beds;
  /// The plan's own phases (PassPlan's gen_s, gen_calls and paths_s).
  double plan_gen_s = 0.0;
  std::uint64_t plan_gen_calls = 0;
  double plan_paths_s = 0.0;
  double wall_s = 0.0;   // the whole pass, without the probe's slices
  double setup_s = 0.0;  // plan + every bed's gen/paths/ctor/deploy
  std::uint64_t ledger_digest = 0;  // FNV-1a over the beds' digests
  /// kReferenceSliceSeconds / the pass's mean probe slice time: the factor
  /// that turns the pass's host times outside beds into reference-speed
  /// seconds (1 when the pass ran without a probe).
  double speed_scale = 1.0;
  std::size_t probe_slices = 0;
};

/// Runs one pass: make_plan, then every bed in spec-then-seed order.
/// Prints one flushed progress line per bed to `progress` (may be null).
/// With a `probe`, the pass samples the host's speed throughout (see
/// speed_probe.hpp) and sets speed_scale.
[[nodiscard]] PassResult run_pass(Workload w, std::uint64_t seed, bool traced,
                                  SpanLog& spans, const char* pass_name,
                                  std::FILE* progress, SpeedProbe* probe);

}  // namespace perfbench
