// Churn campaign: steady-state request streams through the ticketed
// controller API (ROADMAP item 3).
//
// Every earlier campaign issued one batch at t=10ms and waited for the
// drain. This bench instead sustains a Poisson stream of flow add / remove
// / reroute requests — rolled offline from the seed, so all three systems
// replay the byte-identical load — through the admission queue (bounded
// in-flight, deterministic FIFO, per-flow coalescing) and reports, per
// system and fault row:
//
//   - updates/sec: settled requests per *virtual* second (deterministic
//     controller throughput, no wall clock in any report);
//   - completion tails: p50/p99/p999 of submit -> settle latency from the
//     per-run P2 estimators (churn.latency_* in the campaign report);
//   - queue behaviour: admission queue/in-flight peaks, coalesced and
//     refused request counts;
//   - per-system counters: P4Update preflight verdicts and recovery
//     actions under the 5%-drop row.
//
// Gates: every request terminal in every run (liveness), zero
// loop/blackhole violations on the P4Update rows, and the --jobs 1 vs
// --jobs N campaign reports byte-identical.
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/bench_cli.hpp"
#include "harness/campaign.hpp"
#include "net/fattree.hpp"
#include "net/topologies.hpp"
#include "obs/run_report.hpp"

namespace {

using namespace p4u;
using harness::RunSpec;
using harness::ScenarioFamily;
using harness::SpecResult;
using harness::SystemKind;

constexpr SystemKind kSystems[] = {SystemKind::kP4Update,
                                   SystemKind::kEzSegway,
                                   SystemKind::kCentral};

struct ChurnTable {
  std::size_t pairs;
  std::size_t initial_flows;
  double arrivals_per_sec;
  sim::Duration duration;
  int runs;
};

constexpr ChurnTable kFull{64, 128, 100.0, sim::seconds(60), 8};
constexpr ChurnTable kSmoke{24, 48, 25.0, sim::seconds(8), 3};

/// One fault-intensity row; expands into a spec per system.
struct ChurnRow {
  const char* slug;
  double control_drop = 0.0;
};

constexpr ChurnRow kRows[] = {
    {"churn_ft8_clean", 0.0},
    {"churn_ft8_drop05", 0.05},
};

RunSpec spec_for(const ChurnRow& row, SystemKind kind, const ChurnTable& t,
                 const std::shared_ptr<const net::Graph>& graph,
                 const std::vector<net::NodeId>& edge,
                 const harness::BenchCli& cli) {
  RunSpec spec;
  spec.slug = std::string(row.slug) + "." + harness::to_string(kind) +
              ".updates_per_sec";
  spec.sample_unit = "req/s";
  spec.family = ScenarioFamily::kChurn;
  spec.graph = graph;
  spec.bed.system = kind;
  spec.churn.pairs = t.pairs;
  spec.churn.initial_flows = t.initial_flows;
  spec.churn.arrivals_per_sec = t.arrivals_per_sec;
  spec.churn.duration = t.duration;
  spec.churn.endpoints = edge;  // flows run between edge switches (§9.1)
  // The admission window: one in-flight update per flow (serializes
  // concurrent reroutes of the same flow for every system — Central keeps
  // one job per flow) and a bounded global window with coalescing, the
  // regime the request ledger exists to account for.
  spec.bed.admission.max_inflight_global = 32;
  spec.bed.admission.max_inflight_per_flow = 1;
  spec.bed.admission.coalesce = true;
  // P4Update counts (but does not enforce) static preflight verdicts, so
  // the capability accessor rows in BENCH_churn.json are live.
  spec.bed.static_preflight = true;
  if (row.control_drop > 0.0) {
    spec.bed.fault_plan.model.control_drop_prob = row.control_drop;
    spec.bed.recovery.enabled = true;
    spec.bed.enable_retrigger = true;
    spec.bed.p4u_uim_watchdog = sim::milliseconds(500);
    spec.bed.p4u_wait_timeout = sim::milliseconds(500);
  }
  spec.runs = cli.runs_or(t.runs);
  spec.base_seed = cli.seed_or(12000);
  return spec;
}

/// Mean of one histogram family's observations (0 when absent) — the
/// per-run scalars (tails, peaks) land one observation per seeded run.
double hist_mean(const obs::MetricsRegistry& m, const std::string& name) {
  for (const auto& row : m.histograms()) {
    if (row.name == name && row.value != nullptr && row.value->count > 0) {
      return row.value->sum / static_cast<double>(row.value->count);
    }
  }
  return 0.0;
}

double hist_max(const obs::MetricsRegistry& m, const std::string& name) {
  for (const auto& row : m.histograms()) {
    if (row.name == name && row.value != nullptr && row.value->count > 0) {
      return row.value->max;
    }
  }
  return 0.0;
}

/// Sum of the request-ledger counter for one terminal state across kinds.
std::uint64_t requests_in_state(const obs::MetricsRegistry& m,
                                const char* state) {
  std::uint64_t total = 0;
  for (const auto& row : m.counters()) {
    if (row.name != "ctrl.request") continue;
    for (const auto& [k, v] : row.labels) {
      if (k == "state" && v == state) total += row.value;
    }
  }
  return total;
}

bool is_p4update_spec(const SpecResult& sr) {
  return sr.slug.find(".P4Update.") != std::string::npos;
}

}  // namespace

int main(int argc, char** argv) {
  harness::BenchCliSpec cli_spec;
  cli_spec.program = "churn";
  cli_spec.description =
      "Steady-state churn campaign on a fat-tree(8): a Poisson add/remove/"
      "reroute stream through the admission queue for all three systems; "
      "reports updates/sec and completion tails, gates on liveness and "
      "byte-identical --jobs 1 vs --jobs N reports.";
  const harness::BenchCli cli =
      harness::parse_bench_cli_or_exit(argc, argv, cli_spec);

  const ChurnTable& table = cli.smoke ? kSmoke : kFull;
  net::FatTree ft = net::fattree_topology(8);
  net::set_uniform_capacity(ft.graph, 100.0);
  const std::vector<net::NodeId> edge = ft.edge;
  const auto graph = std::make_shared<const net::Graph>(std::move(ft.graph));

  harness::Campaign campaign;
  for (const ChurnRow& row : kRows) {
    for (const SystemKind kind : kSystems) {
      campaign.add(spec_for(row, kind, table, graph, edge, cli));
    }
  }
  std::printf("Churn campaign: fat-tree(8), %llu pairs, %llu initial flows, "
              "%.0f req/s for %.0f virtual seconds, %d seeded runs/spec\n",
              static_cast<unsigned long long>(table.pairs),
              static_cast<unsigned long long>(table.initial_flows),
              table.arrivals_per_sec, sim::to_ms(table.duration) / 1000.0,
              campaign.specs().front().runs);

  // The determinism gate: the same campaign merged from 1 worker and from
  // N workers must produce byte-identical reports.
  const harness::JobsGate gate = harness::run_jobs_gate(
      campaign, cli.jobs, cli.out_dir, "churn",
      {{"campaign", "churn"},
       {"topology", "fat-tree(8)"},
       {"arrivals_per_sec", std::to_string(table.arrivals_per_sec)}});
  std::printf("reports: %s vs %s -> %s\n", gate.serial_report.c_str(),
              gate.parallel_report.c_str(),
              gate.identical ? "byte-identical" : "DIFFERENT");

  // Per-spec verdicts + the BENCH_churn.json trajectory artifact.
  bool all_terminal = true;
  bool p4u_clean = true;
  obs::Json specs = obs::Json::array();
  for (const SpecResult& sr : gate.serial) {
    const auto& r = sr.result;
    const obs::MetricsRegistry& m = r.metrics;
    const bool terminal = r.incomplete_runs == 0;
    all_terminal = all_terminal && terminal;
    if (is_p4update_spec(sr)) {
      p4u_clean = p4u_clean && r.violations.loops == 0 &&
                  r.violations.blackholes == 0;
    }
    const double ups = r.update_times_ms.count() > 0
                           ? r.update_times_ms.mean()
                           : 0.0;
    const double p50 = hist_mean(m, "churn.latency_p50_ms");
    const double p99 = hist_mean(m, "churn.latency_p99_ms");
    const double p999 = hist_mean(m, "churn.latency_p999_ms");
    const double queue_peak = hist_max(m, "churn.queue_peak");
    const double inflight_peak = hist_max(m, "churn.inflight_peak");
    std::printf(
        "%-42s %8.1f req/s  p50 %7.2f ms  p99 %7.2f ms  p999 %7.2f ms  "
        "peak q=%.0f/i=%.0f  coalesced %llu  %s\n",
        sr.slug.c_str(), ups, p50, p99, p999, queue_peak, inflight_peak,
        static_cast<unsigned long long>(m.counter_total("churn.coalesced")),
        terminal ? "all-terminal" : "INCOMPLETE");
    specs.push(
        obs::Json::object()
            .set("slug", sr.slug)
            .set("updates_per_sec_mean", obs::Json::fixed(ups, 3))
            .set("latency_p50_ms", obs::Json::fixed(p50, 4))
            .set("latency_p99_ms", obs::Json::fixed(p99, 4))
            .set("latency_p999_ms", obs::Json::fixed(p999, 4))
            .set("queue_peak", obs::Json::fixed(queue_peak, 0))
            .set("inflight_peak", obs::Json::fixed(inflight_peak, 0))
            .set("dispatched", m.counter_total("churn.dispatched"))
            .set("coalesced", m.counter_total("churn.coalesced"))
            .set("superseded", requests_in_state(m, "superseded"))
            .set("rolled_back", requests_in_state(m, "rolled-back"))
            .set("abandoned", requests_in_state(m, "abandoned"))
            .set("preflight",
                 obs::Json::object()
                     .set("safe", m.counter_total("ctrl.preflight_safe"))
                     .set("unsafe", m.counter_total("ctrl.preflight_unsafe"))
                     .set("unknown", m.counter_total("ctrl.preflight_unknown"))
                     .set("skipped",
                          m.counter_total("ctrl.preflight_skipped")))
            .set("recovery",
                 obs::Json::object()
                     .set("resends", m.counter_total("ctrl.recovery_resends"))
                     .set("repairs", m.counter_total("ctrl.recovery_repairs"))
                     .set("retriggers", m.counter_total("ctrl.retriggers")))
            .set("incomplete_runs", r.incomplete_runs)
            .set("loops", r.violations.loops)
            .set("blackholes", r.violations.blackholes));
  }
  const std::string json_path = obs::write_json(
      cli.out_dir, "BENCH_churn.json",
      obs::bench_json("churn", cli.smoke)
          .set("topology", "fat-tree(8)")
          .set("arrivals_per_sec", obs::Json::fixed(table.arrivals_per_sec, 1))
          .set("jobs_reports_identical", gate.identical)
          .set("specs", std::move(specs)));
  std::printf("churn trajectory: %s\n", json_path.c_str());

  std::printf("\n---- verdict ----\n");
  std::printf("every request terminal in every run: %s\n",
              all_terminal ? "YES" : "NO");
  std::printf("P4Update rows free of loops/blackholes: %s\n",
              p4u_clean ? "YES" : "NO");
  std::printf("--jobs 1 and --jobs %d reports byte-identical: %s\n",
              gate.jobs, gate.identical ? "YES" : "NO");
  return all_terminal && p4u_clean && gate.identical ? 0 : 1;
}
