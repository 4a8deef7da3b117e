// Static-verification campaign: verdict matrix + verifier throughput
// (DESIGN.md §12, EXPERIMENTS.md "Static plan verification").
//
// Four case families exercise the static update-plan verifier across the
// three ordering disciplines and gate a hard-coded expected-verdict matrix:
//
//   - fig2_misinformed: the paper's Fig. 2 stale-NIB scenario. P4Update's
//     relabeling survives the wrong belief (Safe); ez-Segway and Central
//     plan against the belief and reach a transient loop (Unsafe, with a
//     minimized witness written as VERIFY_witness_*.json) — the ablation
//     headline of the subsystem.
//   - fig4_backward: the double-backward-segment reroute; every discipline
//     orders it correctly (all Safe).
//   - mc_cells: the bench/mc smoke reroutes with a truthful NIB (all Safe,
//     matching the explorer's exhaustive result; bench/mc --static-verify
//     gates the same agreement against the live exploration).
//   - fattree_reroute: shortest -> 2nd-shortest reroutes between edge
//     switches of a fat-tree (all Safe), doubling as the throughput
//     workload: plans/sec and lattice states pruned vs enumerated.
//
// Verdicts are pure functions of the plan, so the campaign recomputes every
// row with --jobs 1 and --jobs N and gates on byte-identical serializations
// (wall-clock throughput goes only into the BENCH_verify.json trajectory
// artifact, never into the gated rows).
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <chrono>

// p4u-detlint: allow(wall-clock) throughput measurement: wall time is the measurand (plans/sec); results go to the BENCH_verify.json trajectory artifact, never into the gated verdict rows
using BenchClock = std::chrono::steady_clock;

#include "harness/bench_cli.hpp"
#include "harness/parallel_runner.hpp"
#include "harness/static_check.hpp"
#include "net/fattree.hpp"
#include "net/paths.hpp"
#include "obs/run_report.hpp"
#include "verify/verifier.hpp"

namespace {

using namespace p4u;
using harness::StaticCheckCase;
using harness::SystemKind;

constexpr SystemKind kSystems[] = {SystemKind::kP4Update,
                                   SystemKind::kEzSegway,
                                   SystemKind::kCentral};

/// One gated row: a batch of per-flow cases for one (family, system) pair
/// and the verdict the matrix demands.
struct VerifyRow {
  std::string family;
  SystemKind system = SystemKind::kP4Update;
  std::vector<StaticCheckCase> cases;
  verify::VerdictKind expected = verify::VerdictKind::kSafe;
};

std::vector<StaticCheckCase> fig2_cases(SystemKind system) {
  StaticCheckCase c;
  c.system = system;
  c.flow = net::flow_id_of(0, 4);
  c.believed_old = {0, 1, 2, 4};
  c.actual_from = {0, 1, 2, 3, 4};
  c.new_path = {0, 3, 1, 2, 4};
  return {c};
}

std::vector<StaticCheckCase> fig4_cases(SystemKind system) {
  StaticCheckCase c;
  c.system = system;
  c.flow = net::flow_id_of(0, 5);
  c.believed_old = {0, 1, 2, 3, 4, 5};
  c.new_path = {0, 2, 1, 4, 3, 5};
  return {c};
}

std::vector<StaticCheckCase> mc_cases(SystemKind system) {
  StaticCheckCase a;
  a.system = system;
  a.flow = net::flow_id_of(0, 2);
  a.believed_old = {0, 1, 2};
  a.new_path = {0, 2};
  StaticCheckCase b;
  b.system = system;
  b.flow = net::flow_id_of(2, 0);
  b.believed_old = {2, 1, 0};
  b.new_path = {2, 0};
  return {a, b};
}

/// Deterministic shortest -> 2nd-shortest reroutes between distinct edge
/// switches, in pair-index order.
std::vector<StaticCheckCase> fattree_cases(const net::Graph& g,
                                           const std::vector<net::NodeId>& edge,
                                           SystemKind system,
                                           std::size_t n_pairs) {
  std::vector<StaticCheckCase> out;
  const std::size_t e = edge.size();
  for (std::size_t i = 0; i < e * e && out.size() < n_pairs; ++i) {
    const net::NodeId src = edge[i % e];
    const net::NodeId dst = edge[(i / e + i + 1) % e];
    if (src == dst) continue;
    const auto paths = net::k_shortest_paths(g, src, dst, 2);
    if (paths.size() < 2) continue;
    StaticCheckCase c;
    c.system = system;
    c.flow = net::flow_id_of(src, dst);
    c.believed_old = paths[0];
    c.new_path = paths[1];
    out.push_back(std::move(c));
  }
  return out;
}

std::vector<VerifyRow> build_rows(const net::Graph& ft_graph,
                                  const std::vector<net::NodeId>& ft_edge,
                                  std::size_t ft_pairs) {
  std::vector<VerifyRow> rows;
  for (SystemKind s : kSystems) {
    VerifyRow r;
    r.family = "fig2_misinformed";
    r.system = s;
    r.cases = fig2_cases(s);
    r.expected = s == SystemKind::kP4Update ? verify::VerdictKind::kSafe
                                            : verify::VerdictKind::kUnsafe;
    rows.push_back(std::move(r));
  }
  for (SystemKind s : kSystems) {
    rows.push_back({"fig4_backward", s, fig4_cases(s),
                    verify::VerdictKind::kSafe});
  }
  for (SystemKind s : kSystems) {
    rows.push_back({"mc_cells", s, mc_cases(s), verify::VerdictKind::kSafe});
  }
  for (SystemKind s : kSystems) {
    rows.push_back({"fattree_reroute", s,
                    fattree_cases(ft_graph, ft_edge, s, ft_pairs),
                    verify::VerdictKind::kSafe});
  }
  return rows;
}

verify::BatchResult evaluate_row(const VerifyRow& row) {
  std::vector<verify::FlowPlan> plans;
  plans.reserve(row.cases.size());
  for (const StaticCheckCase& c : row.cases) {
    plans.push_back(harness::build_static_plan(c));
  }
  return verify::verify_batch(plans);
}

/// The gated serialization: everything deterministic about a row, nothing
/// wall-clock. --jobs 1 and --jobs N must produce identical strings.
std::string row_line(const VerifyRow& row, const verify::BatchResult& r) {
  return row.family + "|" + harness::to_string(row.system) + "|" +
         verify::verdict_json(r.overall);
}

}  // namespace

int main(int argc, char** argv) {
  harness::BenchCliSpec cli_spec;
  cli_spec.program = "verify";
  cli_spec.description =
      "Static update-plan verification campaign: verdict matrix over the "
      "fig2/fig4/mc/fat-tree families, verifier throughput, and a "
      "byte-identity gate across --jobs.";
  cli_spec.with_runs = false;
  const harness::BenchCli cli =
      harness::parse_bench_cli_or_exit(argc, argv, cli_spec);

  const int ft_k = cli.smoke ? 4 : 8;
  const std::size_t ft_pairs = cli.smoke ? 64 : 512;
  net::FatTree ft = net::fattree_topology(ft_k);
  const std::vector<VerifyRow> rows = build_rows(ft.graph, ft.edge, ft_pairs);

  // Throughput: wall-clock over one serial pass of every plan in the table
  // (dominated by the fat-tree family). Trajectory-only.
  std::size_t total_plans = 0;
  for (const VerifyRow& row : rows) total_plans += row.cases.size();
  const auto t0 = BenchClock::now();
  std::vector<verify::BatchResult> serial(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    serial[i] = evaluate_row(rows[i]);
  }
  const std::chrono::duration<double> dt = BenchClock::now() - t0;
  const double plans_per_sec =
      dt.count() > 0.0 ? static_cast<double>(total_plans) / dt.count() : 0.0;

  // Determinism gate: recompute every row on N workers; the serialized
  // rows must match the serial pass byte for byte.
  const int n_jobs = cli.jobs > 0 ? cli.jobs : 4;
  const std::vector<std::string> parallel_lines = harness::parallel_map_indexed(
      rows.size(), n_jobs,
      [&](std::size_t i) { return row_line(rows[i], evaluate_row(rows[i])); });
  bool jobs_identical = true;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    jobs_identical =
        jobs_identical && row_line(rows[i], serial[i]) == parallel_lines[i];
  }

  std::printf("Static verification campaign: %zu rows, %zu plans, "
              "fat-tree(%d) x %zu reroutes\n",
              rows.size(), total_plans, ft_k, ft_pairs);
  bool matrix_ok = true;
  std::uint64_t states_enumerated = 0;
  std::uint64_t states_pruned = 0;
  obs::Json rows_json = obs::Json::array();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const VerifyRow& row = rows[i];
    const verify::Verdict& v = serial[i].overall;
    const bool ok = v.kind == row.expected;
    matrix_ok = matrix_ok && ok;
    states_enumerated += v.stats.states_enumerated;
    states_pruned += v.stats.states_pruned;
    std::printf("  %-18s %-10s verdict %-7s (expected %-7s) %s\n",
                row.family.c_str(), harness::to_string(row.system),
                verify::to_string(v.kind), verify::to_string(row.expected),
                ok ? "OK" : "MISMATCH");
    if (v.kind == verify::VerdictKind::kUnsafe && v.witness) {
      const std::string path = obs::write_json(
          cli.out_dir,
          "VERIFY_witness_" + row.family + "_" +
              harness::to_string(row.system) + ".json",
          obs::Json::raw(verify::witness_json(*v.witness)));
      std::printf("    witness: %s\n", path.c_str());
    }
    rows_json.push(obs::Json::object()
                       .set("family", row.family)
                       .set("system", harness::to_string(row.system))
                       .set("result", obs::Json::raw(verify::verdict_json(v))));
  }

  const std::string bench_path = obs::write_json(
      cli.out_dir, "BENCH_verify.json",
      obs::bench_json("verify", cli.smoke)
          .set("plans", total_plans)
          .set("verify_seconds", obs::Json::fixed(dt.count(), 6))
          .set("plans_per_sec", obs::Json::fixed(plans_per_sec, 1))
          .set("states_enumerated", states_enumerated)
          .set("states_pruned", states_pruned)
          .set("jobs_verdicts_identical", jobs_identical)
          .set("expected_matrix_ok", matrix_ok)
          .set("rows", std::move(rows_json)));
  std::printf("verify trajectory: %s\n", bench_path.c_str());

  std::printf("\n---- verdict ----\n");
  std::printf("expected verdict matrix: %s\n", matrix_ok ? "OK" : "MISMATCH");
  std::printf("throughput: %.0f plans/sec (%zu plans, %.4fs)\n",
              plans_per_sec, total_plans, dt.count());
  std::printf("--jobs 1 and --jobs %d verdicts byte-identical: %s\n", n_jobs,
              jobs_identical ? "YES" : "NO");
  return matrix_ok && jobs_identical ? 0 : 1;
}
