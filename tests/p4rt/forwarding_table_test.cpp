// Differential test of SwitchDevice's flat forwarding table against a
// std::map reference, plus the slot-release rule of remove_rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "net/topologies.hpp"
#include "p4rt/fabric.hpp"
#include "p4rt/switch_device.hpp"
#include "sim/random.hpp"

namespace p4u::p4rt {
namespace {

SwitchParams straggling() {
  // Exponential stragglers reorder completions across installs, so the
  // per-flow retire-in-issue-order rule is actually exercised.
  SwitchParams p;
  p.straggler_mean_ms = 20.0;
  return p;
}

struct Env {
  sim::Simulator sim;
  net::NamedTopology topo = net::fig2_topology();
  Fabric fabric{sim, topo.graph, straggling(), /*seed=*/1};

  /// Advances virtual time to `t`, running every event due by then.
  void run_to(sim::Time t) {
    sim.schedule_at(t, [] {});
    sim.run(t);
  }
};

std::vector<std::pair<FlowId, std::int32_t>> visited(const SwitchDevice& sw) {
  std::vector<std::pair<FlowId, std::int32_t>> out;
  sw.for_each_rule([&](FlowId f, std::int32_t p) { out.emplace_back(f, p); });
  return out;
}

/// Reference model: the table as a std::map, updated by the operations
/// the test issues and by on_active callbacks as timed installs retire.
struct Reference {
  std::map<FlowId, std::int32_t> rules;
  // Per-flow install sequence numbers: issued so far, and the next one
  // expected to retire (installs accepted before a crash never retire).
  std::map<FlowId, std::uint64_t> issued;
  std::map<FlowId, std::uint64_t> next_retire;
  std::map<FlowId, sim::Time> last_retire_at;
  std::uint64_t retired = 0;
};

void expect_agrees(const SwitchDevice& sw, const Reference& ref,
                   const std::vector<FlowId>& universe, int step) {
  for (const FlowId f : universe) {
    const auto it = ref.rules.find(f);
    const auto got = sw.lookup(f);
    if (it == ref.rules.end()) {
      EXPECT_FALSE(got.has_value()) << "step " << step << " flow " << f;
    } else {
      ASSERT_TRUE(got.has_value()) << "step " << step << " flow " << f;
      EXPECT_EQ(*got, it->second) << "step " << step << " flow " << f;
    }
  }
  const std::vector<std::pair<FlowId, std::int32_t>> want(ref.rules.begin(),
                                                          ref.rules.end());
  EXPECT_EQ(visited(sw), want) << "step " << step;
}

TEST(ForwardingTableTest, MatchesMapReferenceUnderRandomOperations) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Env env;
    SwitchDevice& sw = env.fabric.sw(0);
    sim::Rng rng(seed);
    // Wide random ids: interns arrive out of FlowId order.
    std::vector<FlowId> universe;
    for (int i = 0; i < 24; ++i) universe.push_back(rng() >> 8);
    ASSERT_FALSE(std::is_sorted(universe.begin(), universe.end()));

    Reference ref;
    auto pick = [&](std::size_t n) {
      return static_cast<std::size_t>(rng.uniform(n));
    };
    const std::int32_t ports[] = {0, 1, 2, SwitchDevice::kLocalPort};
    bool crashed = false;
    for (int step = 0; step < 1500; ++step) {
      const FlowId f = universe[pick(universe.size())];
      const std::int32_t port = ports[pick(4)];
      const std::size_t op = pick(100);
      if (op < 25) {
        sw.set_rule_now(f, port);
        if (!crashed) ref.rules[f] = port;
      } else if (op < 55) {
        const bool quick = pick(2) == 0;
        const std::uint64_t seq = crashed ? 0 : ref.issued[f]++;
        sw.install_rule(
            f, port,
            [&ref, &env, f, port, seq] {
              EXPECT_EQ(seq, ref.next_retire[f]) << "flow " << f;
              ref.next_retire[f] = seq + 1;
              const auto last = ref.last_retire_at.find(f);
              if (last != ref.last_retire_at.end()) {
                EXPECT_GT(env.sim.now(), last->second) << "flow " << f;
              }
              ref.last_retire_at[f] = env.sim.now();
              ref.rules[f] = port;
              ++ref.retired;
            },
            quick);
      } else if (op < 75) {
        sw.remove_rule(f);
        if (!crashed) ref.rules.erase(f);
      } else if (op < 78) {
        sw.crash();
        crashed = true;
        ref.rules.clear();
        ref.next_retire = ref.issued;  // pending installs are lost
      } else if (op < 83) {
        sw.restart();
        crashed = false;
      } else {
        env.run_to(env.sim.now() + sim::microseconds(
                                       static_cast<std::int64_t>(pick(40000))));
      }
      expect_agrees(sw, ref, universe, step);
      if (testing::Test::HasFailure()) return;
    }
    env.sim.run();
    expect_agrees(sw, ref, universe, -1);
    EXPECT_GT(ref.retired, 100u) << "seed " << seed;
  }
}

TEST(ForwardingTableTest, RemoveWhileInstallPendingKeepsIssueOrder) {
  Env env;
  SwitchDevice& sw = env.fabric.sw(0);
  const FlowId f = 77;
  std::vector<std::int32_t> retired;
  // A slow table write, then a fast register write: the fast one must
  // still retire second, even with the rule removed in between.
  sw.install_rule(f, 1, [&] { retired.push_back(1); });
  sw.remove_rule(f);
  EXPECT_EQ(sw.flow_slots(), 1u);  // the pending tail keeps the slot
  sw.install_rule(f, 2, [&] { retired.push_back(2); }, /*quick=*/true);
  env.sim.run();
  EXPECT_EQ(retired, (std::vector<std::int32_t>{1, 2}));
  EXPECT_EQ(sw.lookup(f), 2);
}

TEST(ForwardingTableTest, ChurnReturnsSlotCountToBaseline) {
  Env env;
  SwitchDevice& sw = env.fabric.sw(0);
  for (FlowId f = 1; f <= 3; ++f) sw.set_rule_now(f, 0);
  const std::size_t baseline = sw.flow_slots();
  EXPECT_EQ(baseline, 3u);
  for (FlowId f = 100; f < 400; ++f) {
    sw.install_rule(f, 1);
    sw.set_rule_now(f + 1000, 2);  // untimed rules release unconditionally
    env.sim.run();
    env.run_to(env.sim.now() + 1);  // the install tail is now in the past
    sw.remove_rule(f);
    sw.remove_rule(f + 1000);
  }
  EXPECT_EQ(sw.flow_slots(), baseline);
  EXPECT_EQ(visited(sw).size(), 3u);
}

TEST(ForwardingTableTest, RemoveAtTailTimeKeepsSlotUntilTailPasses) {
  Env env;
  SwitchDevice& sw = env.fabric.sw(0);
  const FlowId f = 5;
  sw.install_rule(f, 1);
  env.sim.run();  // now() == the install's completion time == its tail
  sw.remove_rule(f);
  EXPECT_FALSE(sw.lookup(f).has_value());
  EXPECT_EQ(sw.flow_slots(), 1u);
  env.run_to(env.sim.now() + 1);
  sw.remove_rule(f);
  EXPECT_EQ(sw.flow_slots(), 0u);
}

TEST(ForwardingTableTest, CrashReleasesEverySlot) {
  Env env;
  SwitchDevice& sw = env.fabric.sw(0);
  sw.set_rule_now(9, 0);
  sw.install_rule(4, 1);
  sw.crash();
  EXPECT_EQ(sw.flow_slots(), 0u);
  EXPECT_TRUE(visited(sw).empty());
  sw.restart();
  sw.set_rule_now(4, 2);
  env.sim.run();  // the pre-crash install is stale and must not land
  EXPECT_EQ(sw.lookup(4), 2);
  EXPECT_FALSE(sw.lookup(9).has_value());
}

}  // namespace
}  // namespace p4u::p4rt
