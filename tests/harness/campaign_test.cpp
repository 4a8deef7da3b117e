#include "harness/campaign.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/topologies.hpp"

namespace p4u::harness {
namespace {

std::shared_ptr<const net::Graph> fig1_graph() {
  net::NamedTopology topo = net::fig1_topology();
  net::set_uniform_capacity(topo.graph, 100.0);
  return std::make_shared<net::Graph>(std::move(topo.graph));
}

RunSpec small_single_flow(SystemKind kind, int runs) {
  net::NamedTopology topo = net::fig1_topology();
  RunSpec spec;
  spec.slug = std::string("test.") + to_string(kind) + ".update_time_ms";
  spec.family = ScenarioFamily::kSingleFlow;
  spec.graph = fig1_graph();
  spec.old_path = topo.old_path;
  spec.new_path = topo.new_path;
  spec.bed.system = kind;
  spec.bed.ctrl_latency_model = CtrlLatencyModel::kFixed;
  spec.bed.switch_params.straggler_mean_ms = 20.0;
  spec.runs = runs;
  return spec;
}

Campaign small_campaign(int runs) {
  Campaign c;
  c.add(small_single_flow(SystemKind::kP4Update, runs));
  c.add(small_single_flow(SystemKind::kEzSegway, runs));
  return c;
}

/// The tentpole guarantee: a campaign's merged output is byte-identical
/// whatever the worker count. Raw sample series (order included) and every
/// metric row must match between serial and parallel execution.
TEST(CampaignTest, ParallelRunIsByteIdenticalToSerial) {
  const Campaign campaign = small_campaign(6);
  const std::vector<SpecResult> serial = campaign.run(/*jobs=*/1);
  const std::vector<SpecResult> parallel = campaign.run(/*jobs=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(serial[i].slug);
    EXPECT_EQ(serial[i].slug, parallel[i].slug);
    // Sample series: same values in the same (seed) order.
    EXPECT_EQ(serial[i].result.update_times_ms.raw(),
              parallel[i].result.update_times_ms.raw());
    EXPECT_EQ(serial[i].result.alarms, parallel[i].result.alarms);
    EXPECT_EQ(serial[i].result.violations.total(),
              parallel[i].result.violations.total());
    EXPECT_EQ(serial[i].result.incomplete_runs,
              parallel[i].result.incomplete_runs);
    // Metric rows: identical counters and identical histogram state.
    const auto sc = serial[i].result.metrics.counters();
    const auto pc = parallel[i].result.metrics.counters();
    ASSERT_EQ(sc.size(), pc.size());
    for (std::size_t r = 0; r < sc.size(); ++r) {
      EXPECT_EQ(sc[r].name, pc[r].name);
      EXPECT_EQ(sc[r].labels, pc[r].labels);
      EXPECT_EQ(sc[r].value, pc[r].value) << sc[r].name;
    }
    const auto sh = serial[i].result.metrics.histograms();
    const auto ph = parallel[i].result.metrics.histograms();
    ASSERT_EQ(sh.size(), ph.size());
    for (std::size_t r = 0; r < sh.size(); ++r) {
      EXPECT_EQ(sh[r].name, ph[r].name);
      EXPECT_EQ(sh[r].value->counts, ph[r].value->counts) << sh[r].name;
      EXPECT_EQ(sh[r].value->sum, ph[r].value->sum) << sh[r].name;
    }
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The shared `--jobs` gate of the campaign benches: its serial results are
/// campaign.run(1), and the jobs1/jobsN reports it writes match byte for
/// byte.
TEST(CampaignTest, JobsGateComparesSerialAndParallelReports) {
  namespace fs = std::filesystem;
  const std::string root =
      (fs::temp_directory_path() / "p4u_campaign_jobs_gate_test").string();
  fs::remove_all(root);
  const Campaign campaign = small_campaign(2);
  const JobsGate gate =
      run_jobs_gate(campaign, 3, root, "gate", {{"campaign", "gate"}});

  const std::vector<SpecResult> serial = campaign.run(1);
  ASSERT_EQ(gate.serial.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(gate.serial[i].slug, serial[i].slug);
    EXPECT_EQ(gate.serial[i].result.update_times_ms.raw(),
              serial[i].result.update_times_ms.raw());
  }
  EXPECT_EQ(gate.jobs, 3);
  EXPECT_EQ(gate.serial_report, root + "/jobs1/gate.jsonl");
  EXPECT_EQ(gate.parallel_report, root + "/jobs3/gate.jsonl");
  EXPECT_TRUE(gate.identical);
  const std::string report = slurp(gate.serial_report);
  EXPECT_NE(report.find("\"campaign\":\"gate\""), std::string::npos);
  EXPECT_EQ(report, slurp(gate.parallel_report));

  // A worker count <= 0 compares against the default of 4.
  EXPECT_EQ(run_jobs_gate(campaign, 0, root, "gate", {}).jobs, 4);
  fs::remove_all(root);
}

TEST(CampaignTest, UnknownSystemKindThrows) {
  TestBedParams params;
  params.system = static_cast<SystemKind>(99);
  EXPECT_THROW(TestBed(*fig1_graph(), params), std::logic_error);
}

TEST(CampaignTest, OversubscribedJobsMatchSerialToo) {
  // More workers than jobs: the pool must not invent or drop runs.
  Campaign c;
  c.add(small_single_flow(SystemKind::kP4Update, 2));
  const auto serial = c.run(1);
  const auto wide = c.run(16);
  ASSERT_EQ(serial.size(), 1u);
  ASSERT_EQ(wide.size(), 1u);
  EXPECT_EQ(serial[0].result.update_times_ms.raw(),
            wide[0].result.update_times_ms.raw());
}

TEST(CampaignTest, ExecuteRunMatchesCampaignExpansion) {
  // Run index r of a spec is seed base_seed + r; the campaign's series is
  // exactly [execute_run(spec, 0), execute_run(spec, 1), ...].
  const RunSpec spec = small_single_flow(SystemKind::kP4Update, 3);
  Campaign c;
  c.add(spec);
  const auto results = c.run(1);
  ASSERT_EQ(results[0].result.update_times_ms.count(), 3u);
  for (int r = 0; r < 3; ++r) {
    const RunOutcome o = execute_run(spec, r);
    ASSERT_TRUE(o.sample.has_value()) << r;
    EXPECT_EQ(*o.sample, results[0].result.update_times_ms.raw()[r]) << r;
  }
}

TEST(CampaignTest, TotalRunsSumsSpecs) {
  Campaign c;
  c.add(small_single_flow(SystemKind::kP4Update, 3));
  c.add(small_single_flow(SystemKind::kEzSegway, 5));
  EXPECT_EQ(c.total_runs(), 8u);
}

TEST(CampaignTest, AddValidatesSpecs) {
  Campaign c;
  RunSpec no_graph = small_single_flow(SystemKind::kP4Update, 3);
  no_graph.graph = nullptr;
  EXPECT_THROW(c.add(std::move(no_graph)), std::invalid_argument);

  RunSpec negative = small_single_flow(SystemKind::kP4Update, 3);
  negative.runs = -1;
  EXPECT_THROW(c.add(std::move(negative)), std::invalid_argument);

  // The demo families build their own topologies: no graph needed.
  RunSpec demo;
  demo.slug = "fig4.P4Update.u3_completion_ms";
  demo.family = ScenarioFamily::kFig4FastForward;
  demo.bed.system = SystemKind::kP4Update;
  demo.runs = 1;
  demo.base_seed = 1;
  EXPECT_NO_THROW(c.add(std::move(demo)));
}

TEST(CampaignTest, DemoFamiliesProduceSamples) {
  Campaign c;
  for (SystemKind kind : {SystemKind::kP4Update, SystemKind::kEzSegway}) {
    RunSpec fig4;
    fig4.slug = std::string("fig4.") + to_string(kind) + ".u3_completion_ms";
    fig4.family = ScenarioFamily::kFig4FastForward;
    fig4.bed.system = kind;
    fig4.runs = 2;
    fig4.base_seed = 1;
    c.add(std::move(fig4));
  }
  const auto results = c.run(2);
  ASSERT_EQ(results.size(), 2u);
  for (const SpecResult& r : results) {
    EXPECT_EQ(r.result.update_times_ms.count(), 2u) << r.slug;
    EXPECT_EQ(r.result.violations.total(), 0u) << r.slug;
  }
  // P4Update fast-forwards; ez-Segway serializes. Order must hold per seed.
  EXPECT_LT(results[0].result.update_times_ms.mean(),
            results[1].result.update_times_ms.mean());
}

/// Samples merge (add_all of another run's raw series) is what the campaign
/// does per spec; the result must depend only on the merge order chosen,
/// which the campaign fixes to seed order — not on which worker finished
/// first.
TEST(CampaignTest, SamplesMergePreservesSeedOrder) {
  sim::Samples into;
  into.add(3.0);
  sim::Samples other;
  other.add(1.0);
  other.add(2.0);
  into.add_all(other.raw());
  EXPECT_EQ(into.raw(), (std::vector<double>{3.0, 1.0, 2.0}));
}

}  // namespace
}  // namespace p4u::harness
