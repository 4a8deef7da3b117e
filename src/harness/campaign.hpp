// Campaign: declarative experiment specs over the simulator.
//
// Every figure in the paper's §9 evaluation is a matrix of (topology ×
// scenario family × system × seeds). A RunSpec names one cell of that
// matrix; a Campaign expands its specs into independent seeded jobs (one
// TestBed, Rng, InvariantMonitor, and MetricsRegistry per job), runs them
// — serially or across a thread pool (harness/parallel_runner.hpp) — and
// merges per-spec results in spec-then-seed order. Because jobs share
// nothing mutable and the merge order is fixed, the merged result is
// byte-identical whatever the job count: `--jobs 8` is the same experiment
// as `--jobs 1`, just ~8x sooner.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/churn.hpp"
#include "harness/scenario.hpp"
#include "harness/traffic.hpp"
#include "obs/metrics.hpp"
#include "sim/stats.hpp"

namespace p4u::harness {

/// Aggregated outcome of one spec's seeded runs.
struct ExperimentResult {
  sim::Samples update_times_ms;  // per run: the measured completion time
  std::uint64_t alarms = 0;
  InvariantMonitor::Violations violations;
  std::uint64_t incomplete_runs = 0;
  /// Merged across every seeded run (counters add, histograms merge).
  obs::MetricsRegistry metrics;
};

/// The scenario family a RunSpec belongs to; picks the per-seed job body.
enum class ScenarioFamily {
  kSingleFlow,        // §9.2: one flow old -> new; sample = update duration
  kMultiFlow,         // §9.2: gravity batch; sample = last flow's completion
  kFig2Inconsistency, // §4.1 demo; sample = packets delivered at the egress
  kFig4FastForward,   // §4.2 demo; sample = U3 completion time
  kChaos,             // gravity batch + per-seed link-down & switch-crash
                      // mid-update; sample = updates settling kCompleted
  kScale,             // million-flow flat-state campaign: scale_flows
                      // resident flows over pinned edge pairs, a prefix of
                      // scale_update_flows rerouted in one batch; sample =
                      // the batch's last completion time
  kChurn,             // steady-state churn: a Poisson stream of add /
                      // remove / reroute requests through the admission
                      // queue; sample = settled requests per virtual
                      // second, tails in churn.latency_p{50,99,999}_ms
};

const char* to_string(ScenarioFamily f);

/// One cell of an evaluation matrix: everything a seeded run needs, plus
/// how many seeds to expand it into. Declarative — building a RunSpec
/// executes nothing.
struct RunSpec {
  /// Series name for reports, e.g. "fig7a.P4Update.update_time_ms".
  std::string slug;
  ScenarioFamily family = ScenarioFamily::kSingleFlow;
  /// Shared read-only across jobs; each TestBed copies it. Unused by the
  /// demo families (they build their own §4 topologies).
  std::shared_ptr<const net::Graph> graph;
  // Single-flow knobs.
  net::Path old_path;
  net::Path new_path;
  // Multi-flow knobs.
  TrafficParams traffic;
  // Chaos knobs (kChaos only): each seeded run draws one link outage and
  // one switch crash — element and instant chosen from a fault-only rng
  // stream inside [chaos_from, chaos_to] — and appends them to
  // `bed.fault_plan`. Both outages heal after `chaos_outage`.
  sim::Time chaos_from = sim::milliseconds(20);
  sim::Time chaos_to = sim::milliseconds(150);
  sim::Duration chaos_outage = sim::seconds(2);
  // Scale knobs (kScale only). The run deploys `scale_flows` resident
  // flows with synthetic unique ids (splitmix64 of the flow index —
  // bijective, so a million flows never collide) distributed round-robin
  // over up to `scale_pairs` pinned edge-switch (src, dst) pairs; the
  // first `scale_update_flows` of them are rerouted old -> 2nd-shortest
  // in one batch. Keeping the distinct pair set small bounds the k-paths
  // precompute while the per-flow state still scales with scale_flows.
  std::size_t scale_flows = 100000;
  std::size_t scale_update_flows = 1000;
  std::size_t scale_pairs = 256;
  /// Candidate flow endpoints (e.g. the fat-tree's edge switches); pairs
  /// are drawn from here. Empty = every node is a candidate.
  std::vector<net::NodeId> scale_endpoints;
  // Churn knobs (kChurn only): the offline-rolled request stream; see
  // harness/churn.hpp. `bed.admission` bounds the in-flight window.
  ChurnParams churn;
  /// System under test, latency model, fault knobs, congestion mode, ...
  /// (`bed.seed` is overwritten per run with base_seed + run index).
  TestBedParams bed;
  /// Optional per-run event-ordering strategy (e.g. a SeededStrategy for
  /// A/B-testing the strategy path, or a ReplayStrategy for re-running a
  /// recorded schedule). Called once per seeded job with that job's seed;
  /// the job owns the returned strategy for its bed's lifetime. Leave
  /// empty for the simulator's historical fast path. Note: the §4 demo
  /// families build their own beds and ignore this hook.
  std::function<std::unique_ptr<sim::ScheduleStrategy>(std::uint64_t)>
      strategy_factory;
  int runs = 30;
  std::uint64_t base_seed = 1000;
  std::string sample_unit = "ms";
};

/// Outcome of a single seeded run (one expanded job).
struct RunOutcome {
  std::optional<double> sample;  // absent = the run did not complete
  std::uint64_t alarms = 0;
  InvariantMonitor::Violations violations;
  obs::MetricsRegistry metrics;
};

/// Executes one seeded run of `spec` (seed = base_seed + run_index).
/// Thread-safe for concurrent calls with distinct run indices: the job
/// owns its whole simulation stack.
RunOutcome execute_run(const RunSpec& spec, int run_index);

/// One spec's merged outcome, in the campaign's spec order.
struct SpecResult {
  std::string slug;
  std::string sample_unit;
  ExperimentResult result;
};

class Campaign {
 public:
  /// Appends a spec; returns it for fluent tweaks.
  RunSpec& add(RunSpec spec);

  [[nodiscard]] const std::vector<RunSpec>& specs() const { return specs_; }
  /// Total number of seeded jobs the campaign expands into.
  [[nodiscard]] std::size_t total_runs() const;

  /// Expands every spec into seeded jobs, executes them on up to `jobs`
  /// workers (<= 0: every core), and merges outcomes in spec-then-seed
  /// order. The merged results are byte-identical for every job count.
  [[nodiscard]] std::vector<SpecResult> run(int jobs = 1) const;

 private:
  std::vector<RunSpec> specs_;
};

/// Convenience used by every bench: builds a RunReport named `run_name`
/// under `out_dir` carrying each spec's merged metrics and sample series
/// (named by slug), plus the given meta entries. Returns the JSONL path,
/// or an empty string when out_dir is empty.
std::string write_campaign_report(
    const std::string& out_dir, const std::string& run_name,
    const std::vector<std::pair<std::string, std::string>>& meta,
    const std::vector<SpecResult>& results);

/// Outcome of run_jobs_gate.
struct JobsGate {
  std::vector<SpecResult> serial;  // campaign.run(1)
  int jobs = 0;                    // the worker count compared against 1
  std::string serial_report;       // <root>/jobs1/<run_name>.jsonl
  std::string parallel_report;     // <root>/jobs<jobs>/<run_name>.jsonl
  bool identical = false;          // the two reports are byte-identical
};

/// The `--jobs` determinism gate of the campaign benches: runs `campaign`
/// on 1 worker and on `jobs` workers (<= 0: 4), writes both merged reports
/// with write_campaign_report under <report_root>/jobs1 and
/// <report_root>/jobs<N> (same run name and meta, so the comparison is
/// exact), and byte-compares them. An empty report_root means a
/// p4u_<run_name>_reports directory under the system temp directory.
JobsGate run_jobs_gate(
    const Campaign& campaign, int jobs, std::string report_root,
    const std::string& run_name,
    const std::vector<std::pair<std::string, std::string>>& meta);

}  // namespace p4u::harness
