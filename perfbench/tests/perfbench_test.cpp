// The benchmark's own tests.
//
// Bed parity: for two pinned workload seeds, every spec of every
// workload's plan runs through the benchmark's bed runner (probed, as the
// untraced runs measure it: the run in steps with probe slices between)
// and through harness::execute_run; both must report the same per-seed
// sample and the same monitor verdict. This keeps the benchmark running
// what the campaigns run.
//
// Quantiles: the pooled virtual-time quantiles the benchmark reports
// satisfy p50 <= p99 <= max on every workload, the order statistics are
// exact nearest-rank values, and bed_tail_ms is the median of the groups'
// tails.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/campaign.hpp"
#include "quantiles.hpp"
#include "sim/stats.hpp"
#include "spans.hpp"
#include "speed_probe.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kParitySeeds[] = {1, 2};

void expect_parity(Workload w) {
  for (const std::uint64_t seed : kParitySeeds) {
    SpanLog spans;
    const PassPlan plan = make_plan(w, seed, spans, 0);
    ASSERT_FALSE(plan.specs.empty());
    SpeedProbe probe;
    for (const p4u::harness::RunSpec& spec : plan.specs) {
      const BedResult mine =
          run_bed(spec, 0, BedOptions{&spans, 0, false, &probe});
      const p4u::harness::RunOutcome ref = p4u::harness::execute_run(spec, 0);
      SCOPED_TRACE(mine.label);
      ASSERT_EQ(mine.sample.has_value(), ref.sample.has_value());
      if (ref.sample) {
        EXPECT_EQ(*mine.sample, *ref.sample);
      }
      EXPECT_EQ(mine.violations.loops, ref.violations.loops);
      EXPECT_EQ(mine.violations.blackholes, ref.violations.blackholes);
      EXPECT_EQ(mine.violations.capacity, ref.violations.capacity);
    }
  }
}

TEST(BedParity, Ft16BatchMatchesExecuteRun) {
  expect_parity(Workload::kFt16Batch);
}
TEST(BedParity, Ft8ChurnMatchesExecuteRun) {
  expect_parity(Workload::kFt8Churn);
}
TEST(BedParity, Fig7CellsMatchesExecuteRun) {
  expect_parity(Workload::kFig7Cells);
}

TEST(BedParity, TracedBedKeepsTheLedger) {
  SpanLog spans;
  const PassPlan plan = make_plan(Workload::kFt8Churn, 1, spans, 0);
  // The lossy P4Update row: coins, timers and recovery all run.
  const p4u::harness::RunSpec& spec = plan.specs[3];
  SpeedProbe probe;
  const BedResult plain = run_bed(spec, 0, BedOptions{&spans, 0, false});
  const BedResult probed =
      run_bed(spec, 0, BedOptions{&spans, 0, false, &probe});
  const BedResult traced = run_bed(spec, 0, BedOptions{&spans, 0, true});
  EXPECT_EQ(plain.ledger_digest, probed.ledger_digest);
  EXPECT_EQ(plain.counts.events, probed.counts.events);
  EXPECT_GT(probe.slices(), 0u);
  EXPECT_EQ(plain.ledger_digest, traced.ledger_digest);
  EXPECT_EQ(plain.counts.events, traced.counts.events);
  ASSERT_TRUE(traced.trace.has_value());
  EXPECT_TRUE(traced.trace->shadow_agrees);
  std::uint64_t class_events = 0;
  for (const std::uint64_t n : traced.trace->class_events) class_events += n;
  EXPECT_EQ(class_events, traced.counts.events);
  EXPECT_GT(traced.trace->monitor_calls, 0u);
}

TEST(Quantiles, OrderStatisticsAreNearestRank) {
  p4u::sim::Samples s;
  for (int i = 100; i >= 1; --i) s.add(static_cast<double>(i));
  EXPECT_EQ(order_statistic(s, 0.50), 50.0);
  EXPECT_EQ(order_statistic(s, 0.99), 99.0);
  EXPECT_EQ(order_statistic(s, 1.00), 100.0);
  const Tail t = tail_of(s);
  EXPECT_EQ(t.value, 90.0);  // ten samples (91..100) beyond it
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  p4u::sim::Samples few;
  for (int i = 1; i <= 5; ++i) few.add(static_cast<double>(i));
  EXPECT_EQ(tail_of(few).value, 5.0);  // fewer than 11: the maximum
}

TEST(Quantiles, BedTailIsTheMedianOfGroupTails) {
  std::vector<p4u::sim::Samples> groups(3);
  for (int g = 0; g < 3; ++g) {
    // Group g holds 1..100 scaled by (g + 1): tails 90, 180, 270.
    for (int i = 1; i <= 100; ++i) {
      groups[g].add(static_cast<double>(i * (g + 1)));
    }
  }
  const Tail t = median_tail(groups);
  EXPECT_EQ(t.value, 180.0);
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.n, 100u);
}

TEST(Quantiles, PooledVirtualTimeIsMonotoneOnEveryWorkload) {
  for (const Workload w : kWorkloads) {
    SCOPED_TRACE(to_string(w));
    SpanLog spans;
    const PassResult p = run_pass(w, 1, false, spans, "test", nullptr,
                                  nullptr);
    p4u::sim::Samples vt;
    for (const BedResult& b : p.beds) vt.add_all(b.vt_ms);
    ASSERT_GT(vt.count(), 100u);
    const double p50 = order_statistic(vt, 0.50);
    const double p99 = order_statistic(vt, 0.99);
    EXPECT_LE(p50, p99);
    EXPECT_LE(p99, vt.max());
  }
}

}  // namespace
}  // namespace perfbench
