// Model-checking campaign: exhaustive interleaving exploration on small
// topologies (ROADMAP item 4).
//
// The chaos campaign samples interleavings probabilistically; this bench
// *enumerates* them. Each cell of the table below is a tiny topology (2-3
// switches) with 1-3 overlapping flow updates and a bounded number of
// adversarially-placed control-message drops. sim::Explorer drives a fresh
// deterministic TestBed down every distinct schedule (DFS over co-enabled
// pick sets and fault coins, sleep-set reduction keyed on per-flow/
// per-switch independence) and judges each complete path against the
// paper's properties: loop freedom, blackhole freedom, and terminal-outcome
// liveness (every update settles).
//
// The verdict is one-sided, like chaos: P4Update must hold all three
// properties on EVERY path of an exhausted search; the baselines run the
// same table and their counterexamples are recorded as replayable Schedule
// artifacts (MC_counterexample_<cell>.json) — evidence, not failure.
//
// Emits BENCH_mc.json (per-cell interleaving/reduction/failure counts and
// the peak DFS frontier). Cells are independent, so --jobs parallelizes
// across the table deterministically. --strategy seeded runs each cell once
// per seed without exploring; --replay re-executes a recorded artifact.
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/bench_cli.hpp"
#include "harness/campaign.hpp"
#include "harness/parallel_runner.hpp"
#include "harness/static_check.hpp"
#include "net/topologies.hpp"
#include "obs/run_report.hpp"
#include "sim/explorer.hpp"
#include "sim/schedule.hpp"
#include "verify/verifier.hpp"

namespace {

using namespace p4u;
using harness::SystemKind;
using sim::Explorer;

constexpr SystemKind kSystems[] = {SystemKind::kP4Update,
                                   SystemKind::kEzSegway,
                                   SystemKind::kCentral};

struct McFlow {
  net::Path old_path;
  net::Path new_path;
};

/// One exploration configuration: a topology plus the overlapping updates
/// and the adversary's fault budget.
struct McConfig {
  const char* slug;
  const char* title;
  std::shared_ptr<const net::Graph> graph;
  std::vector<McFlow> flows;
  /// A positive drop probability exposes every control hop as a coin
  /// choice point; the explorer branches at most `max_faults` of them per
  /// path (the probability's value only matters under --strategy seeded).
  double ctrl_drop = 0.0;
  std::uint64_t max_faults = 0;
  /// Controller-side recovery (resend timers, repair routing). Disabling
  /// it isolates the systems' *local* resilience: P4Update's §11 switch-
  /// level mechanisms vs the baselines' reliance on the controller.
  bool ctrl_recovery = true;
  bool in_smoke = true;
};

std::shared_ptr<const net::Graph> pair_graph() {
  net::Graph g;
  g.add_node("v0");
  g.add_node("v1");
  g.add_link(0, 1, sim::milliseconds(1));
  return std::make_shared<const net::Graph>(std::move(g));
}

std::shared_ptr<const net::Graph> triangle_graph() {
  net::Graph g;
  g.add_node("v0");
  g.add_node("v1");
  g.add_node("v2");
  g.add_link(0, 1, sim::milliseconds(1));
  g.add_link(1, 2, sim::milliseconds(1));
  g.add_link(0, 2, sim::milliseconds(1));
  return std::make_shared<const net::Graph>(std::move(g));
}

std::vector<McConfig> config_table() {
  std::vector<McConfig> table;
  {
    // 2 switches, 2 flows in opposite directions, both re-issued onto
    // their only path at the same instant. The paths never change, but the
    // full protocol runs (UIMs, verification, UFMs), so the cell isolates
    // pure message-interleaving + drop behavior on the smallest fabric.
    McConfig c;
    c.slug = "mc_2sw_2flow";
    c.title = "2 switches, 2 opposing flows, 1 adversarial drop";
    c.graph = pair_graph();
    c.flows.push_back({{0, 1}, {0, 1}});
    c.flows.push_back({{1, 0}, {1, 0}});
    c.ctrl_drop = 0.05;
    c.max_faults = 1;
    table.push_back(std::move(c));
  }
  {
    // Triangle, 2 overlapping genuine reroutes off the shared middle
    // switch, fault-free: pure concurrency of two real updates.
    McConfig c;
    c.slug = "mc_3sw_2flow";
    c.title = "triangle, 2 reroutes off the shared switch, fault-free";
    c.graph = triangle_graph();
    c.flows.push_back({{0, 1, 2}, {0, 2}});
    c.flows.push_back({{2, 1, 0}, {2, 0}});
    table.push_back(std::move(c));
  }
  {
    // Triangle under fire: the same 2 reroutes with 1 adversarial drop.
    McConfig c;
    c.slug = "mc_3sw_2flow_drop";
    c.title = "triangle, 2 reroutes, 1 adversarial drop";
    c.graph = triangle_graph();
    c.flows.push_back({{0, 1, 2}, {0, 2}});
    c.flows.push_back({{2, 1, 0}, {2, 0}});
    c.ctrl_drop = 0.05;
    c.max_faults = 1;
    table.push_back(std::move(c));
  }
  {
    // The differentiating cell: same triangle and adversary, but the
    // controller never resends. P4Update's switch-local recovery (§11
    // watchdogs) must still settle every path; a baseline losing its one
    // copy of a dependency message has nothing to fall back on.
    McConfig c;
    c.slug = "mc_3sw_2flow_local";
    c.title = "triangle, 2 reroutes, 1 drop, controller recovery off";
    c.graph = triangle_graph();
    c.flows.push_back({{0, 1, 2}, {0, 2}});
    c.flows.push_back({{2, 1, 0}, {2, 0}});
    c.ctrl_drop = 0.05;
    c.max_faults = 1;
    c.ctrl_recovery = false;
    table.push_back(std::move(c));
  }
  {
    // 3 overlapping updates: both reroutes plus a detour onto the path
    // the first flow is vacating. Full-table row only — the state space is
    // an order of magnitude beyond the smoke budget.
    McConfig c;
    c.slug = "mc_3sw_3flow";
    c.title = "triangle, 3 overlapping updates, fault-free";
    c.graph = triangle_graph();
    c.flows.push_back({{0, 1, 2}, {0, 2}});
    c.flows.push_back({{2, 1, 0}, {2, 0}});
    c.flows.push_back({{1, 2}, {1, 0, 2}});
    c.in_smoke = false;
    table.push_back(std::move(c));
  }
  return table;
}

/// Executes one complete steered simulation of `cfg` under `kind` and
/// judges the paper's three properties on the final state.
Explorer::Verdict run_cell(const McConfig& cfg, SystemKind kind,
                           sim::ScheduleStrategy& strategy,
                           std::uint64_t seed) {
  harness::TestBedParams params;
  params.system = kind;
  params.seed = seed;
  params.trace_enabled = false;
  params.measure_prep_wallclock = false;
  // Uniform fixed latencies everywhere: co-enabled (same-instant) events
  // are what the explorer branches on, so the timing model must make
  // concurrent deliveries actually collide instead of being staggered by
  // random stragglers.
  params.ctrl_latency_model = harness::CtrlLatencyModel::kFixed;
  params.fixed_ctrl_latency = sim::milliseconds(5);
  // Zero send-service: a batch of UIMs departs in the same instant, so the
  // per-switch arrivals land co-enabled instead of being staggered by the
  // controller's serialization — maximizing real delivery races.
  params.ctrl_send_service = 0;
  params.switch_params.straggler_mean_ms = 0.0;
  params.fault_plan.model.control_drop_prob = cfg.ctrl_drop;
  // Adversarial drops must not wedge the run: recovery (resend/repair) and
  // §11 retriggering are what turn a lost UIM into a terminal outcome.
  params.recovery.enabled = cfg.ctrl_recovery;
  params.enable_retrigger = true;
  params.p4u_wait_timeout = sim::milliseconds(500);
  params.p4u_uim_watchdog = sim::milliseconds(500);
  params.strategy = &strategy;
  harness::TestBed bed(*cfg.graph, params);

  std::vector<net::FlowId> ids;
  for (const McFlow& mf : cfg.flows) {
    net::Flow f;
    f.ingress = mf.old_path.front();
    f.egress = mf.old_path.back();
    f.id = net::flow_id_of(f.ingress, f.egress);
    f.size = 1.0;
    bed.deploy_flow(f, mf.old_path);
    ids.push_back(f.id);
  }
  // Every update lands at the same instant: the issue order itself is the
  // first choice point of the exploration.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    bed.schedule_update_at(sim::milliseconds(1), ids[i],
                           cfg.flows[i].new_path);
  }
  bed.run(sim::seconds(300));

  Explorer::Verdict v;
  const auto& viol = bed.monitor().violations();
  if (viol.loops > 0) {
    v.ok = false;
    v.failure = "forwarding loop (" + std::to_string(viol.loops) +
                " observation(s))";
  } else if (viol.blackholes > 0) {
    v.ok = false;
    v.failure = "blackhole (" + std::to_string(viol.blackholes) +
                " observation(s))";
  } else if (!bed.flow_db().all_terminal()) {
    v.ok = false;
    v.failure = "liveness: " +
                std::to_string(bed.flow_db().nonterminal_updates()) +
                " update(s) never reached a terminal outcome";
  }
  return v;
}

/// One (config x system) exploration outcome.
struct CellResult {
  const McConfig* cfg = nullptr;
  SystemKind system = SystemKind::kP4Update;
  sim::ExplorerStats stats;
  std::string first_counterexample;  // minimized Schedule JSON, or empty
  std::string first_failure;         // its verdict text
};

CellResult explore_cell(const McConfig& cfg, SystemKind kind,
                        const harness::BenchCli& cli) {
  CellResult out;
  out.cfg = &cfg;
  out.system = kind;

  sim::ExplorerOptions opt;
  opt.max_faults = cfg.max_faults;
  opt.max_runs = 4'000'000;  // safety net; exhaustion is the expectation
  if (cli.max_depth) opt.max_depth = static_cast<std::size_t>(*cli.max_depth);

  Explorer explorer(
      [&](sim::ScheduleStrategy& s) { return run_cell(cfg, kind, s, 1); },
      opt);
  explorer.set_failure_handler(
      [&](const sim::Schedule& schedule, const std::string& what) {
        if (!out.first_counterexample.empty()) return;
        sim::Schedule annotated = schedule;
        annotated.add_meta("config", cfg.slug);
        annotated.add_meta("system", harness::to_string(kind));
        annotated.add_meta("failure", what);
        out.first_counterexample = annotated.to_json();
        out.first_failure = what;
      });
  out.stats = explorer.explore();
  return out;
}

/// --static-verify: the static update-plan verifier (DESIGN.md §12) must
/// agree with every exhausted exploration — a Safe verdict on a cell that
/// exhibited a loop/blackhole is a false Safe (hard failure), an Unsafe
/// verdict on a clean exhausted cell is an overclaim (also a failure), and
/// liveness-only failures are outside the verifier's scope.
bool static_cross_check(const std::vector<CellResult>& results) {
  std::printf("\n---- static cross-check ----\n");
  bool all_agree = true;
  for (const CellResult& c : results) {
    std::vector<verify::FlowPlan> plans;
    for (const McFlow& mf : c.cfg->flows) {
      harness::StaticCheckCase sc;
      sc.system = c.system;
      sc.flow = net::flow_id_of(mf.old_path.front(), mf.old_path.back());
      sc.believed_old = mf.old_path;  // mc cells run with a truthful NIB
      sc.new_path = mf.new_path;
      plans.push_back(harness::build_static_plan(sc));
    }
    const verify::BatchResult batch = verify::verify_batch(plans);
    const harness::DynamicOutcome dynamic =
        harness::classify_dynamic(c.stats.failures > 0, c.first_failure);
    // Agreement is only meaningful against a complete search; a truncated
    // exploration proves nothing about unseen interleavings.
    const bool agree = !c.stats.exhausted ||
                       harness::verdicts_agree(batch.overall, dynamic);
    std::printf("  %-18s %-10s static %-7s dynamic %-18s %s\n", c.cfg->slug,
                harness::to_string(c.system),
                verify::to_string(batch.overall.kind),
                c.stats.failures == 0
                    ? "clean"
                    : (dynamic == harness::DynamicOutcome::kLivenessOnly
                           ? "liveness-only"
                           : "loop/blackhole"),
                agree ? "AGREE" : "DISAGREE");
    all_agree = all_agree && agree;
  }
  std::printf("static verdicts agree with exploration: %s\n",
              all_agree ? "YES" : "NO");
  return all_agree;
}

int replay_main(const std::vector<McConfig>& table,
                const harness::BenchCli& cli) {
  std::ifstream in(cli.replay_path);
  if (!in) {
    std::fprintf(stderr, "mc: cannot read %s\n", cli.replay_path.c_str());
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const sim::Schedule schedule = sim::Schedule::parse(buf.str());

  std::string config_slug;
  std::string system_name;
  for (const auto& [k, v] : schedule.meta) {
    if (k == "config") config_slug = v;
    if (k == "system") system_name = v;
  }
  const McConfig* cfg = nullptr;
  for (const McConfig& c : table) {
    if (config_slug == c.slug) cfg = &c;
  }
  SystemKind kind = SystemKind::kP4Update;
  bool kind_found = false;
  for (SystemKind k : kSystems) {
    if (system_name == harness::to_string(k)) {
      kind = k;
      kind_found = true;
    }
  }
  if (cfg == nullptr || !kind_found) {
    std::fprintf(stderr,
                 "mc: schedule meta does not name a known cell "
                 "(config='%s', system='%s')\n",
                 config_slug.c_str(), system_name.c_str());
    return 2;
  }

  sim::ReplayStrategy replay(schedule);
  const Explorer::Verdict v = run_cell(*cfg, kind, replay, 1);
  std::printf("replayed %s on %s/%s: %s\n", cli.replay_path.c_str(),
              cfg->slug, harness::to_string(kind),
              v.ok ? "all properties held" : v.failure.c_str());
  if (!replay.exhausted()) {
    std::printf("note: %zu of %zu recorded decisions consumed\n",
                replay.consumed(), schedule.choices.size());
  }
  return 0;
}

int seeded_main(const std::vector<McConfig>& table,
                const harness::BenchCli& cli) {
  const int runs = cli.runs_or(3);
  bool p4u_clean = true;
  for (const McConfig& cfg : table) {
    for (SystemKind kind : kSystems) {
      std::uint64_t failures = 0;
      for (int r = 0; r < runs; ++r) {
        sim::SeededStrategy seeded;
        const Explorer::Verdict v =
            run_cell(cfg, kind, seeded, cli.seed_or(1) +
                                            static_cast<std::uint64_t>(r));
        if (!v.ok) ++failures;
      }
      std::printf("  %-18s %-10s seeded runs %d  failures %llu\n", cfg.slug,
                  harness::to_string(kind), runs,
                  static_cast<unsigned long long>(failures));
      if (kind == SystemKind::kP4Update && failures > 0) p4u_clean = false;
    }
  }
  std::printf("\nP4Update clean across seeded runs: %s\n",
              p4u_clean ? "YES" : "NO");
  return p4u_clean ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  harness::BenchCliSpec cli_spec;
  cli_spec.program = "mc";
  cli_spec.description =
      "Exhaustive interleaving exploration (DFS + sleep-set reduction) on "
      "2-3-switch topologies; P4Update must hold loop/blackhole freedom "
      "and liveness on every path.";
  cli_spec.with_mc = true;
  cli_spec.with_static_verify = true;
  const harness::BenchCli cli =
      harness::parse_bench_cli_or_exit(argc, argv, cli_spec);

  const std::vector<McConfig> full_table = config_table();
  if (!cli.replay_path.empty()) return replay_main(full_table, cli);

  std::vector<McConfig> table;
  for (const McConfig& c : full_table) {
    if (!cli.smoke || c.in_smoke) table.push_back(c);
  }
  if (cli.strategy == "seeded") return seeded_main(table, cli);

  // Explore every (config x system) cell; cells are independent, so they
  // parallelize across --jobs workers with a deterministic merge.
  struct Cell {
    const McConfig* cfg;
    SystemKind system;
  };
  std::vector<Cell> cells;
  for (const McConfig& c : table) {
    for (SystemKind k : kSystems) cells.push_back({&c, k});
  }
  std::vector<CellResult> results =
      harness::parallel_map_indexed(cells.size(), cli.jobs, [&](std::size_t i) {
        return explore_cell(*cells[i].cfg, cells[i].system, cli);
      });

  bool p4u_clean = true;
  bool all_exhausted = true;
  std::uint64_t total_interleavings = 0;
  std::uint64_t total_runs = 0;
  obs::Json cells_json = obs::Json::array();
  for (const CellResult& c : results) {
    const sim::ExplorerStats& s = c.stats;
    std::printf(
        "  %-18s %-10s interleavings %-8llu runs %-8llu branch-points %-6llu "
        "pruned %-6llu frontier %-5llu failures %llu%s%s\n",
        c.cfg->slug, harness::to_string(c.system),
        static_cast<unsigned long long>(s.interleavings),
        static_cast<unsigned long long>(s.runs),
        static_cast<unsigned long long>(s.choice_points),
        static_cast<unsigned long long>(s.sleep_pruned + s.redundant_paths),
        static_cast<unsigned long long>(s.max_frontier),
        static_cast<unsigned long long>(s.failures),
        s.exhausted ? "" : "  [NOT EXHAUSTED]",
        c.first_counterexample.empty() ? "" : "  [counterexample recorded]");
    total_interleavings += s.interleavings;
    total_runs += s.runs;
    all_exhausted = all_exhausted && s.exhausted;
    if (c.system == SystemKind::kP4Update) {
      p4u_clean = p4u_clean && s.failures == 0 && s.exhausted;
    }
    if (!c.first_counterexample.empty()) {
      const std::string path = obs::write_json(
          cli.out_dir,
          std::string("MC_counterexample_") + c.cfg->slug + "_" +
              harness::to_string(c.system) + ".json",
          obs::Json::raw(c.first_counterexample));
      std::printf("    counterexample (%s): %s\n", c.first_failure.c_str(),
                  path.c_str());
    }
    cells_json.push(obs::Json::object()
                        .set("config", c.cfg->slug)
                        .set("system", harness::to_string(c.system))
                        .set("interleavings", s.interleavings)
                        .set("runs", s.runs)
                        .set("choice_points", s.choice_points)
                        .set("sleep_pruned", s.sleep_pruned)
                        .set("redundant_paths", s.redundant_paths)
                        .set("max_frontier", s.max_frontier)
                        .set("failures", s.failures)
                        .set("exhausted", s.exhausted));
  }

  const std::string json_path = obs::write_json(
      cli.out_dir, "BENCH_mc.json",
      obs::bench_json("mc", cli.smoke)
          .set("total_interleavings", total_interleavings)
          .set("total_runs", total_runs)
          .set("cells", std::move(cells_json)));
  std::printf("mc trajectory: %s\n", json_path.c_str());

  bool static_agree = true;
  if (cli.static_verify) static_agree = static_cross_check(results);

  // The acceptance bar: the smoke table must be exhaustively explored with
  // >= 10^4 distinct interleavings, and P4Update must be violation-free on
  // every one of them.
  const bool enough = total_interleavings >= 10'000;
  std::printf("\n---- verdict ----\n");
  std::printf("interleavings explored: %llu (>= 10^4: %s)\n",
              static_cast<unsigned long long>(total_interleavings),
              enough ? "YES" : "NO");
  std::printf("every cell exhausted: %s\n", all_exhausted ? "YES" : "NO");
  std::printf("P4Update: zero violations on every explored path: %s\n",
              p4u_clean ? "YES" : "NO");
  if (cli.static_verify) {
    std::printf("static verifier agreement: %s\n",
                static_agree ? "YES" : "NO");
  }
  return p4u_clean && enough && all_exhausted && static_agree ? 0 : 1;
}
