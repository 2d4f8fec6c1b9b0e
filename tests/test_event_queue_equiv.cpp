// Trajectory equivalence: the slot-heap kernel (des::Simulator; its traces
// are named `ladder` after the queue it first ran on) must execute the
// byte-identical (when, id) sequence the frozen std::priority_queue kernel
// (des::ReferenceSimulator) produces, on stress patterns covering
// cancellation, compaction, same-time ties, past-time clamps, staged
// horizons, and spreads from microseconds to hours.
//
// Both kernels are driven through the same deterministic script (all
// decisions come from a shared-seed Rng and script-local state, never from
// kernel internals), so any divergence is an ordering bug in the new
// engine, not script noise.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "des/simulator.h"
#include "reference_kernel.h"

namespace dde::des {
namespace {

struct Fired {
  std::int64_t when_us;
  int id;
  bool operator==(const Fired&) const = default;
};

/// One executed-event trace: every callback records (now, script id) in
/// execution order.
using Trace = std::vector<Fired>;

/// Randomized schedule/cancel script, identical for any kernel with the
/// schedule_at/schedule_after/cancel/run_until interface.
template <typename Sim>
Trace run_mixed_script(std::uint64_t seed) {
  Sim sim;
  Trace trace;
  Rng rng(seed);
  std::vector<decltype(sim.schedule_at(SimTime{}, nullptr))> handles;
  int next_id = 0;

  const auto record = [&](int id) {
    trace.push_back(Fired{sim.now().count(), id});
  };

  for (int round = 0; round < 40; ++round) {
    // Burst of schedules with heavy time ties (10 distinct times/round).
    for (int i = 0; i < 200; ++i) {
      const SimTime when =
          sim.now() + SimTime::micros(static_cast<SimTime::rep>(
                          rng.below(10) * 1000));
      const int id = next_id++;
      handles.push_back(sim.schedule_at(when, [&record, id] { record(id); }));
    }
    // Cancel a random half of the still-tracked handles (some already ran:
    // both kernels must agree those cancels return false).
    for (std::size_t i = 0; i < handles.size(); ++i) {
      if (rng.chance(0.5)) sim.cancel(handles[i]);
    }
    handles.clear();
    // Self-scheduling chain with zero and tiny delays (FIFO-at-now ties).
    const int chain_id = next_id;
    next_id += 5;
    std::function<void(int)> chain = [&](int depth) {
      record(chain_id + depth);
      if (depth < 4) {
        sim.schedule_after(
            SimTime::micros(static_cast<SimTime::rep>(rng.below(2))),
            [&chain, depth] { chain(depth + 1); });
      }
    };
    sim.schedule_after(SimTime::micros(1), [&chain] { chain(0); });
    // Past-time schedule from within a callback: clamps to now(), runs
    // after everything already queued at now().
    const int clamp_id = next_id++;
    sim.schedule_after(SimTime::micros(2), [&, clamp_id] {
      sim.schedule_at(SimTime::zero(), [&record, clamp_id] {
        record(clamp_id);
      });
    });
    // Staged horizon: run only part of the timeline, then keep scripting.
    sim.run_until(sim.now() + SimTime::millis(4));
  }
  sim.run_until();
  return trace;
}

/// Cancel/re-schedule churn: repeatedly tombstones the same logical timer,
/// forcing both kernels through their compaction paths (>64 dead events).
template <typename Sim>
Trace run_churn_script(std::uint64_t seed) {
  Sim sim;
  Trace trace;
  Rng rng(seed);
  const auto record = [&](int id) {
    trace.push_back(Fired{sim.now().count(), id});
  };

  auto watchdog = sim.schedule_at(SimTime::seconds(1), [&record] { record(-1); });
  for (int i = 0; i < 5000; ++i) {
    sim.cancel(watchdog);
    const int id = i;
    watchdog = sim.schedule_at(
        SimTime::seconds(1) + SimTime::micros(static_cast<SimTime::rep>(
                                  rng.below(500))),
        [&record, id] { record(id); });
    if (i % 97 == 0) {
      sim.schedule_at(
          SimTime::micros(static_cast<SimTime::rep>(i)),
          [&record, id] { record(1000000 + id); });
    }
  }
  sim.run_until();
  return trace;
}

/// Far-future spread: spans from microseconds to hours, plus clusters of
/// nearly equal times.
template <typename Sim>
Trace run_spread_script(std::uint64_t seed) {
  Sim sim;
  Trace trace;
  Rng rng(seed);
  const auto record = [&](int id) {
    trace.push_back(Fired{sim.now().count(), id});
  };
  int next_id = 0;
  for (int i = 0; i < 3000; ++i) {
    SimTime when;
    switch (rng.below(3)) {
      case 0:  // cluster: many events in one ~millisecond
        when = SimTime::seconds(10) + SimTime::micros(
                   static_cast<SimTime::rep>(rng.below(1000)));
        break;
      case 1:  // mid-range
        when = SimTime::millis(static_cast<SimTime::rep>(rng.below(60000)));
        break;
      default:  // far future, hours out
        when = SimTime::seconds(3600) * static_cast<SimTime::rep>(
                   1 + rng.below(24));
        break;
    }
    const int id = next_id++;
    sim.schedule_at(when, [&record, id] { record(id); });
  }
  sim.run_until();
  return trace;
}

TEST(EventQueueEquivalence, MixedScheduleCancelTrajectory) {
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    const Trace ladder = run_mixed_script<Simulator>(seed);
    const Trace reference = run_mixed_script<ReferenceSimulator>(seed);
    ASSERT_FALSE(ladder.empty());
    EXPECT_EQ(ladder, reference) << "seed " << seed;
  }
}

TEST(EventQueueEquivalence, CancelChurnCompactionTrajectory) {
  const Trace ladder = run_churn_script<Simulator>(11);
  const Trace reference = run_churn_script<ReferenceSimulator>(11);
  ASSERT_FALSE(ladder.empty());
  EXPECT_EQ(ladder, reference);
}

TEST(EventQueueEquivalence, FarFutureSpreadTrajectory) {
  const Trace ladder = run_spread_script<Simulator>(23);
  const Trace reference = run_spread_script<ReferenceSimulator>(23);
  ASSERT_EQ(ladder.size(), 3000u);
  EXPECT_EQ(ladder, reference);
}

TEST(EventQueueEquivalence, CountersMatchAfterRun) {
  Simulator ladder;
  ReferenceSimulator reference;
  Rng rng_a(5);
  Rng rng_b(5);
  const auto drive = [](auto& sim, Rng& rng) {
    for (int i = 0; i < 1000; ++i) {
      auto h = sim.schedule_at(
          SimTime::micros(static_cast<SimTime::rep>(rng.below(5000))), [] {});
      if (rng.chance(0.3)) sim.cancel(h);
    }
    sim.run_until(SimTime::millis(2));
  };
  drive(ladder, rng_a);
  drive(reference, rng_b);
  EXPECT_EQ(ladder.executed_events(), reference.executed_events());
  EXPECT_EQ(ladder.pending_events(), reference.pending_events());
  EXPECT_EQ(ladder.now(), reference.now());
}

/// Bursts of 512 schedules over a spread of horizons, ~30% cancellation
/// churn (exercising tombstones and compaction), and staged run_until
/// windows. Returns executed events.
template <typename Sim>
std::uint64_t run_burst_churn_workload(std::uint64_t seed, int events) {
  Sim sim;
  Rng rng(seed);
  std::vector<decltype(sim.schedule_at(SimTime{}, nullptr))> handles;
  handles.reserve(512);
  std::uint64_t fired = 0;
  int scheduled = 0;
  while (scheduled < events) {
    for (int i = 0; i < 512 && scheduled < events; ++i, ++scheduled) {
      const SimTime when =
          sim.now() + SimTime::micros(static_cast<SimTime::rep>(
                          rng.below(50000)));
      handles.push_back(sim.schedule_at(when, [&fired] { ++fired; }));
    }
    for (auto& h : handles) {
      if (rng.chance(0.3)) sim.cancel(h);
    }
    handles.clear();
    sim.run_until(sim.now() + SimTime::millis(10));
  }
  sim.run_until();
  return fired;
}

TEST(EventQueueEquivalence, BurstCancelChurnFiresEqualEventCounts) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const std::uint64_t ladder =
        run_burst_churn_workload<Simulator>(seed, 150000);
    const std::uint64_t reference =
        run_burst_churn_workload<ReferenceSimulator>(seed, 150000);
    EXPECT_GT(ladder, 90000u);
    EXPECT_EQ(ladder, reference) << "seed " << seed;
  }
}

/// Same-time FIFO across horizon stops: events at one instant scheduled
/// before AND after a horizon-stop must still run in insertion order.
TEST(EventQueueEquivalence, TieOrderAcrossHorizonStops) {
  const auto script = [](auto& sim) {
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      sim.schedule_at(SimTime::seconds(2),
                      [&order, i] { order.push_back(i); });
    }
    sim.run_until(SimTime::seconds(1));
    for (int i = 50; i < 100; ++i) {
      sim.schedule_at(SimTime::seconds(2),
                      [&order, i] { order.push_back(i); });
    }
    sim.run_until();
    return order;
  };
  Simulator ladder;
  ReferenceSimulator reference;
  EXPECT_EQ(script(ladder), script(reference));
}

}  // namespace
}  // namespace dde::des
