#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace p4u::sim {
namespace {

TEST(SimulatorTest, StartsAtTimeZeroAndIdle) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.run(), 0u);
}

TEST(SimulatorTest, ExecutesEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_in(milliseconds(30), [&] { order.push_back(3); });
  sim.schedule_in(milliseconds(10), [&] { order.push_back(1); });
  sim.schedule_in(milliseconds(20), [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), milliseconds(30));
}

TEST(SimulatorTest, BreaksTiesByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_in(milliseconds(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorTest, HandlersCanScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(milliseconds(1), [&] {
    ++fired;
    sim.schedule_in(milliseconds(1), [&] {
      ++fired;
      sim.schedule_in(milliseconds(1), [&] { ++fired; });
    });
  });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), milliseconds(3));
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  Time seen = -1;
  sim.schedule_in(milliseconds(5), [&] {
    sim.schedule_in(-milliseconds(10), [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, milliseconds(5));
}

TEST(SimulatorTest, NearInfiniteDelaySaturatesInsteadOfWrapping) {
  // now + kTimeInfinity must not overflow into the past: the event parks at
  // the end of time and never fires inside a bounded run.
  Simulator sim;
  bool fired = false;
  sim.schedule_in(milliseconds(5), [&] {
    sim.schedule_in(kTimeInfinity, [&] { fired = true; });
  });
  sim.run(seconds(3600));
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.now(), milliseconds(5));
  // An unbounded run still reaches it (it sits at kTimeInfinity, not beyond).
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, RunUntilStopsAtBound) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(milliseconds(1), [&] { ++fired; });
  sim.schedule_in(milliseconds(100), [&] { ++fired; });
  EXPECT_EQ(sim.run(milliseconds(50)), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 1u);
  // Resume past the bound.
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RunStepsExecutesBoundedCount) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_in(milliseconds(i), [&] { ++fired; });
  }
  EXPECT_EQ(sim.run_steps(2), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.run_steps(100), 3u);
}

TEST(SimulatorTest, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(milliseconds(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_in(milliseconds(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(SimulatorTest, ScheduleAtInThePastClampsToNow) {
  Simulator sim;
  Time seen = -1;
  sim.schedule_in(milliseconds(10), [&] {
    sim.schedule_at(milliseconds(1), [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, milliseconds(10));
}

TEST(SimulatorTest, ExecutedCounterAccumulates) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_in(i, [] {});
  sim.run();
  EXPECT_EQ(sim.executed(), 7u);
}

TEST(SimulatorTest, NextAtIsInfinityWhenIdle) {
  Simulator sim;
  EXPECT_EQ(sim.next_at(), kTimeInfinity);
  sim.schedule_in(milliseconds(3), [] {});
  sim.run();
  EXPECT_EQ(sim.next_at(), kTimeInfinity);
}

TEST(SimulatorTest, NextAtTracksEarliestPendingEvent) {
  Simulator sim;
  sim.schedule_in(milliseconds(7), [] {});
  sim.schedule_in(milliseconds(2), [] {});
  sim.schedule_in(milliseconds(5), [] {});
  EXPECT_EQ(sim.next_at(), milliseconds(2));
  EXPECT_EQ(sim.now(), 0);  // peeking does not advance the clock
  EXPECT_EQ(sim.run_steps(1), 1u);
  EXPECT_EQ(sim.next_at(), milliseconds(5));
  // run(until) stops before next_at(): stepping in slices keyed on it
  // replays exactly the events a single run() would.
  EXPECT_EQ(sim.run(milliseconds(6)), 1u);
  EXPECT_EQ(sim.next_at(), milliseconds(7));
}

TEST(SimulatorTest, PendingCapThrowsAndLeavesQueueDrainable) {
  // 2^20 concurrently pending events is the slot-index cap (kSlotBits).
  constexpr std::size_t kCap = std::size_t{1} << 20;
  Simulator sim;
  sim.reserve(kCap);  // a full-size hint must not change the cap's edge
  struct Check {
    Time last_at = -1;
    std::size_t last_i = 0;
    std::size_t ran = 0;
    bool in_order = true;
  } check;
  for (std::size_t i = 0; i < kCap; ++i) {
    // A handful of distinct timestamps, scheduled out of time order, so
    // draining exercises both the time order and the insertion tie-break.
    const Duration at = static_cast<Duration>((kCap - i) % 5);
    sim.schedule_in(at, [&sim, &check, i] {
      const bool ordered =
          check.ran == 0 || sim.now() > check.last_at ||
          (sim.now() == check.last_at && i > check.last_i);
      check.in_order = check.in_order && ordered;
      check.last_at = sim.now();
      check.last_i = i;
      ++check.ran;
    });
  }
  ASSERT_EQ(sim.pending(), kCap);
  EXPECT_THROW(sim.schedule_in(0, [] {}), std::length_error);
  EXPECT_EQ(sim.pending(), kCap);  // the rejected event left no trace

  EXPECT_EQ(sim.run(), kCap);
  EXPECT_EQ(check.ran, kCap);
  EXPECT_TRUE(check.in_order);
  EXPECT_TRUE(sim.idle());
  // Drained slots recycle: the engine accepts work again.
  bool after = false;
  sim.schedule_in(0, [&after] { after = true; });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_TRUE(after);
}

TEST(SimulatorTest, ReserveAllocatesNoSlab) {
  // The hint sizes bookkeeping only; handler slabs come on first use.
  Simulator sim;
  sim.reserve(std::size_t{1} << 20);
  EXPECT_EQ(sim.slots_allocated(), 0u);
  sim.schedule_in(0, [] {});
  EXPECT_EQ(sim.slots_allocated(), 1024u);
}

TEST(SimulatorTest, PoolGrowsOneSlabAtATimeOnFreshSlots) {
  constexpr std::size_t kSlab = 1024;
  Simulator sim;
  EXPECT_EQ(sim.slots_allocated(), 0u);
  for (std::size_t i = 0; i < kSlab; ++i) sim.schedule_in(1, [] {});
  EXPECT_EQ(sim.slots_allocated(), kSlab);  // exactly one slab, full
  sim.schedule_in(1, [] {});
  EXPECT_EQ(sim.slots_allocated(), 2 * kSlab);  // first fresh slot of #2
  for (std::size_t i = 0; i + 1 < kSlab; ++i) sim.schedule_in(1, [] {});
  EXPECT_EQ(sim.slots_allocated(), 2 * kSlab);
  sim.schedule_in(1, [] {});
  EXPECT_EQ(sim.slots_allocated(), 3 * kSlab);

  // Drained slots recycle from the free list: the pool does not grow again
  // until the pending count exceeds what it has already held.
  EXPECT_EQ(sim.run(), 2 * kSlab + 1);
  for (std::size_t i = 0; i < 2 * kSlab + 1; ++i) sim.schedule_in(1, [] {});
  EXPECT_EQ(sim.slots_allocated(), 3 * kSlab);
  EXPECT_EQ(sim.run(), 2 * kSlab + 1);
}

TEST(SimulatorTest, ReservedAndUnreservedPopIdenticalSchedule) {
  // A mixed schedule: out-of-order timestamps, same-time ties, handlers
  // that schedule more work, and a pending peak that spans several slabs.
  // Slot numbering never feeds the (at, seq) order, so a reserved pool and
  // one grown on demand must pop the same sequence.
  struct Pop {
    Time at;
    int id;
    bool operator==(const Pop&) const = default;
  };
  auto drive = [](bool reserved) {
    Simulator sim;
    if (reserved) sim.reserve(std::size_t{1} << 20);
    std::vector<Pop> pops;
    for (int i = 0; i < 3000; ++i) {
      const Duration at = static_cast<Duration>((i * 7919) % 13);
      sim.schedule_in(at, [&sim, &pops, i] {
        pops.push_back({sim.now(), i});
        if (i % 3 == 0) {
          sim.schedule_in(static_cast<Duration>(i % 4), [&sim, &pops, i] {
            pops.push_back({sim.now(), -i - 1});
          });
        }
      });
    }
    sim.run();
    return pops;
  };
  const std::vector<Pop> lazy = drive(false);
  const std::vector<Pop> eager = drive(true);
  EXPECT_EQ(lazy.size(), 4000u);
  EXPECT_TRUE(lazy == eager);
}

TEST(TimeTest, ConversionHelpers) {
  EXPECT_EQ(milliseconds(1), 1'000'000);
  EXPECT_EQ(microseconds(1000), milliseconds(1));
  EXPECT_EQ(seconds(1), milliseconds(1000));
  EXPECT_DOUBLE_EQ(to_ms(milliseconds(1500)), 1500.0);
  EXPECT_DOUBLE_EQ(to_sec(seconds(2)), 2.0);
  EXPECT_EQ(milliseconds_f(0.5), microseconds(500));
}

}  // namespace
}  // namespace p4u::sim
