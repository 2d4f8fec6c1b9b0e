#include "des/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/contracts.h"
#include "common/rng.h"
#include "des/periodic.h"

namespace dde::des {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), SimTime::zero());
  EXPECT_EQ(sim.executed_events(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime::millis(30), [&] { order.push_back(3); });
  sim.schedule_at(SimTime::millis(10), [&] { order.push_back(1); });
  sim.schedule_at(SimTime::millis(20), [&] { order.push_back(2); });
  sim.run_until();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, SameTimeIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(SimTime::millis(5), [&order, i] { order.push_back(i); });
  }
  sim.run_until();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  SimTime seen;
  sim.schedule_at(SimTime::seconds(2), [&] { seen = sim.now(); });
  sim.run_until();
  EXPECT_EQ(seen, SimTime::seconds(2));
  EXPECT_EQ(sim.now(), SimTime::seconds(2));
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.schedule_at(SimTime::seconds(1), [&] {
    sim.schedule_after(SimTime::seconds(3), [&] { times.push_back(sim.now()); });
  });
  sim.run_until();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], SimTime::seconds(4));
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_after(SimTime::millis(1), recurse);
  };
  sim.schedule_at(SimTime::zero(), recurse);
  sim.run_until();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.executed_events(), 5u);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int ran = 0;
  sim.schedule_at(SimTime::seconds(1), [&] { ++ran; });
  sim.schedule_at(SimTime::seconds(2), [&] { ++ran; });
  sim.schedule_at(SimTime::seconds(3), [&] { ++ran; });
  const auto n = sim.run_until(SimTime::seconds(2));
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until();
  EXPECT_EQ(ran, 3);
}

TEST(Simulator, RunUntilAdvancesClockWhenQueueDrains) {
  Simulator sim;
  sim.schedule_at(SimTime::seconds(1), [] {});
  sim.run_until(SimTime::seconds(10));
  EXPECT_EQ(sim.now(), SimTime::seconds(10));
}

TEST(Simulator, RescheduleFromWithinCallback) {
  Simulator sim;
  std::vector<SimTime> fired;
  sim.schedule_at(SimTime::seconds(1), [&] {
    fired.push_back(sim.now());
    sim.schedule_at(sim.now() + SimTime::seconds(1),
                    [&] { fired.push_back(sim.now()); });
  });
  sim.run_until();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[1], SimTime::seconds(2));
}

TEST(Simulator, PastTimeScheduleClampsToNow) {
  // Regression: schedule_at with a timestamp before now() was guarded only
  // by an assert, so release builds rewound the clock and broke event-order
  // monotonicity. Past-time schedules now clamp to now().
  Simulator sim;
  std::vector<SimTime> fired;
  sim.schedule_at(SimTime::seconds(5), [&] {
    sim.schedule_at(SimTime::seconds(1), [&] { fired.push_back(sim.now()); });
  });
  sim.run_until();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], SimTime::seconds(5));
  EXPECT_EQ(sim.now(), SimTime::seconds(5));
}

TEST(Simulator, ClampedEventsRunFifoAfterCurrent) {
  // Several past-time schedules all clamp to now() and keep their submission
  // order, interleaving FIFO with genuine now() schedules.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime::seconds(5), [&] {
    sim.schedule_at(SimTime::seconds(3), [&] { order.push_back(1); });
    sim.schedule_at(SimTime::zero(), [&] { order.push_back(2); });
    sim.schedule_at(sim.now(), [&] { order.push_back(3); });
  });
  sim.run_until();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, NegativeDelayClampsToNowWithNotice) {
  // Regression: schedule_after documented `delay >= 0` but never enforced
  // it — a negative delay silently landed in the past and schedule_at's
  // clamp hid the caller's arithmetic bug without a trace. It now clamps
  // to zero through DDE_CLAMP_OR, logging once for the site.
  Simulator sim;
  std::vector<int> order;
  const long before = contracts::clamp_notes_emitted();
  sim.schedule_at(SimTime::seconds(1), [&] {
    sim.schedule_after(SimTime::seconds(-5), [&] { order.push_back(1); });
    sim.schedule_after(SimTime::zero(), [&] { order.push_back(2); });
    sim.schedule_after(SimTime::seconds(-1), [&] { order.push_back(3); });
  });
  sim.run_until();
  // All three run at t=1s in submission order (FIFO among same-time).
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::seconds(1));
  // Two violations, one notice: the log is once per site.
  EXPECT_EQ(contracts::clamp_notes_emitted(), before + 1);
}

TEST(Simulator, ManyEventsKeepOrder) {
  Simulator sim;
  dde::Rng rng(5);
  std::vector<SimTime> fired;
  for (int i = 0; i < 5000; ++i) {
    const SimTime t = SimTime::micros(static_cast<SimTime::rep>(rng.below(100000)));
    sim.schedule_at(t, [&fired, &sim] { fired.push_back(sim.now()); });
  }
  sim.run_until();
  EXPECT_EQ(fired.size(), 5000u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

TEST(PeriodicTask, TicksAtPeriod) {
  Simulator sim;
  std::vector<SimTime> ticks;
  PeriodicTask task(sim, SimTime::seconds(1),
                    [&](std::uint64_t) { ticks.push_back(sim.now()); });
  task.start();
  sim.run_until(SimTime::seconds(3.5));
  ASSERT_EQ(ticks.size(), 4u);  // t = 0, 1, 2, 3
  EXPECT_EQ(ticks[0], SimTime::zero());
  EXPECT_EQ(ticks[3], SimTime::seconds(3));
}

TEST(PeriodicTask, InitialDelay) {
  Simulator sim;
  std::vector<SimTime> ticks;
  PeriodicTask task(sim, SimTime::seconds(1),
                    [&](std::uint64_t) { ticks.push_back(sim.now()); });
  task.start(SimTime::seconds(0.5));
  sim.run_until(SimTime::seconds(2.75));
  ASSERT_EQ(ticks.size(), 3u);  // 0.5, 1.5, 2.5
  EXPECT_EQ(ticks[0], SimTime::seconds(0.5));
}

TEST(PeriodicTask, TickIndexIncrements) {
  Simulator sim;
  std::vector<std::uint64_t> indexes;
  PeriodicTask task(sim, SimTime::millis(10),
                    [&](std::uint64_t i) { indexes.push_back(i); });
  task.start();
  sim.run_until(SimTime::millis(45));
  EXPECT_EQ(indexes, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(PeriodicTask, StopHalts) {
  Simulator sim;
  int count = 0;
  PeriodicTask task(sim, SimTime::seconds(1), [&](std::uint64_t) { ++count; });
  task.start();
  sim.schedule_at(SimTime::seconds(2.5), [&] { task.stop(); });
  sim.run_until(SimTime::seconds(10));
  EXPECT_EQ(count, 3);  // t = 0, 1, 2
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTask, StopFromWithinCallback) {
  Simulator sim;
  int count = 0;
  PeriodicTask task(sim, SimTime::seconds(1), [&](std::uint64_t i) {
    ++count;
    if (i == 1) task.stop();
  });
  task.start();
  sim.run_until(SimTime::seconds(10));
  EXPECT_EQ(count, 2);
}

TEST(PeriodicTask, StopThenStartWithinOnePeriodTicksOnce) {
  // stop() leaves the tick queued for t=2 in place; the restart at t=1.7
  // must not let that stale tick run beside the new chain.
  Simulator sim;
  std::vector<SimTime> ticks;
  PeriodicTask task(sim, SimTime::seconds(1),
                    [&](std::uint64_t) { ticks.push_back(sim.now()); });
  task.start();
  sim.schedule_at(SimTime::millis(1500), [&] { task.stop(); });
  sim.schedule_at(SimTime::millis(1700), [&] { task.start(); });
  sim.run_until(SimTime::millis(4500));
  EXPECT_EQ(ticks, (std::vector<SimTime>{
                       SimTime::zero(), SimTime::millis(1000),
                       SimTime::millis(1700), SimTime::millis(2700),
                       SimTime::millis(3700)}));
  EXPECT_EQ(task.ticks(), 5u);
}

TEST(PeriodicTaskDeathTest, ZeroPeriodAborts) {
  EXPECT_DEATH(
      {
        Simulator sim;
        PeriodicTask task(sim, SimTime::zero(), [](std::uint64_t) {});
      },
      "period must be > 0");
}

TEST(PeriodicTask, RestartAfterStop) {
  Simulator sim;
  int count = 0;
  PeriodicTask task(sim, SimTime::seconds(1), [&](std::uint64_t) { ++count; });
  task.start();
  sim.schedule_at(SimTime::seconds(1.5), [&] { task.stop(); });
  sim.schedule_at(SimTime::seconds(5), [&] { task.start(); });
  sim.run_until(SimTime::seconds(7.5));
  // t=0,1 then restart at t=5,6,7.
  EXPECT_EQ(count, 5);
}

}  // namespace
}  // namespace dde::des
