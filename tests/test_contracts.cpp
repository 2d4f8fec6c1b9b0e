// Contract-macro semantics (common/contracts.h) and regression tests for
// the release-reachable bugs the PR-5 assert migration surfaced: every bare
// assert() that could fire on malformed input in a release build now has a
// defined behavior (abort with a message, or clamp with a documented
// fallback), and each such site is pinned here.
#include "common/contracts.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <vector>

#include "harness/parallel_runner.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "des/simulator.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "fusion/reliability.h"
#include "naming/name.h"
#include "net/network.h"
#include "net/topology.h"
#include "sched/multichannel.h"
#include "sched/task.h"
#include "world/grid_map.h"
#include "world/scalar.h"
#include "workflow/mining.h"
#include "workflow/workflow.h"

namespace dde {
namespace {

using contracts::clamp_notes_emitted;

// --- DDE_CHECK ------------------------------------------------------------

TEST(ContractsDeathTest, CheckAbortsWithFileLineAndMessage) {
  // Always-on: must abort in every build type, NDEBUG included.
  EXPECT_DEATH(DDE_CHECK(1 + 1 == 3, "arithmetic broke"),
               "test_contracts\\.cpp.*contract failed.*1 \\+ 1 == 3.*"
               "arithmetic broke");
}

TEST(Contracts, CheckPassesSilently) {
  const long before = clamp_notes_emitted();
  DDE_CHECK(true, "never printed");
  EXPECT_EQ(clamp_notes_emitted(), before);
}

// --- DDE_CLAMP_OR ---------------------------------------------------------

TEST(Contracts, ClampTakesFallbackOnEveryViolationButLogsOnce) {
  int fallbacks = 0;
  const long before = clamp_notes_emitted();
  for (int i = 0; i < 5; ++i) {
    DDE_CLAMP_OR(i < 0, ++fallbacks, "loop clamp fires five times");
  }
  EXPECT_EQ(fallbacks, 5);                        // fallback every time
  EXPECT_EQ(clamp_notes_emitted(), before + 1);   // notice once per site
}

TEST(Contracts, ClampLogsOncePerSiteUnderConcurrentHammering) {
  // Regression for the shared-state migration: the per-site once flag is a
  // function-local std::atomic<bool> (it used to be a mutex-guarded
  // (file,line) set). Hammer one site from four workers; the fallback must
  // run every time but exactly one worker may win the exchange and emit
  // the notice. Runs under the CI TSan job, which would flag the old
  // plain-bool formulation as a data race.
  const long before = clamp_notes_emitted();
  std::atomic<long> fallbacks{0};
  const auto results = harness::run_indexed(
      64,
      [&fallbacks](std::size_t) -> int {
        for (int i = 0; i < 100; ++i) {
          DDE_CLAMP_OR(i < 0, fallbacks.fetch_add(1, std::memory_order_relaxed),
                       "concurrent clamp hammer");
        }
        return 0;
      },
      /*jobs=*/4);
  EXPECT_EQ(results.size(), 64u);
  EXPECT_EQ(fallbacks.load(), 64 * 100);          // fallback on every hit
  EXPECT_EQ(clamp_notes_emitted(), before + 1);   // notice once for the site
}

TEST(Contracts, ClampDoesNothingWhenConditionHolds) {
  int fallbacks = 0;
  const long before = clamp_notes_emitted();
  DDE_CLAMP_OR(2 < 3, ++fallbacks, "never fires");
  EXPECT_EQ(fallbacks, 0);
  EXPECT_EQ(clamp_notes_emitted(), before);
}

TEST(Contracts, ClampSupportsReturnFallback) {
  const auto guarded = [](int x) -> int {
    DDE_CLAMP_OR(x >= 0, return -1, "negative input rejected");
    return x * 2;
  };
  EXPECT_EQ(guarded(4), 8);
  EXPECT_EQ(guarded(-7), -1);
}

// --- DDE_ASSERT -----------------------------------------------------------

TEST(ContractsDeathTest, AssertActiveExactlyWhenDebug) {
#ifdef NDEBUG
  DDE_ASSERT(false);  // compiled out: must be a no-op
  SUCCEED();
#else
  EXPECT_DEATH(DDE_ASSERT(false), "contract failed.*debug assertion");
#endif
}

TEST(Contracts, AssertDoesNotEvaluateArgumentUnderNdebug) {
  int evaluations = 0;
  DDE_ASSERT(++evaluations > 0);
#ifdef NDEBUG
  EXPECT_EQ(evaluations, 0);
#else
  EXPECT_EQ(evaluations, 1);
#endif
}

// --- DDE_INVARIANT --------------------------------------------------------

TEST(ContractsDeathTest, InvariantActiveExactlyWhenOptedIn) {
#ifdef DDE_INVARIANTS
  EXPECT_DEATH(DDE_INVARIANT(false, "sweep failed"), "sweep failed");
#else
  DDE_INVARIANT(false, "compiled out");
  SUCCEED();
#endif
}

// --- Regression: kRandom scheduling with a null RNG -----------------------
// Previously an unconditional rng->shuffle — a segfault in release builds.

TEST(ContractRegressions, MultichannelRandomOrderNullRngFallsBack) {
  std::vector<sched::DecisionTask> tasks(2);
  tasks[0].id = QueryId{1};
  tasks[0].relative_deadline = SimTime::seconds(10);
  tasks[0].objects = {{ObjectId{1}, SimTime::seconds(1), SimTime::seconds(8)}};
  tasks[1].id = QueryId{2};
  tasks[1].relative_deadline = SimTime::seconds(10);
  tasks[1].objects = {{ObjectId{2}, SimTime::seconds(1), SimTime::seconds(8)}};
  const auto out = sched::schedule_multichannel(
      tasks, /*channels=*/2, sched::TaskOrder::kRandom,
      sched::ObjectOrder::kRandom, /*rng=*/nullptr);
  EXPECT_EQ(out.tasks.size(), 2u);  // degraded to deterministic order
}

TEST(ContractRegressions, MultichannelZeroChannelsClampsToOne) {
  std::vector<sched::DecisionTask> tasks(1);
  tasks[0].id = QueryId{1};
  tasks[0].relative_deadline = SimTime::seconds(5);
  tasks[0].objects = {{ObjectId{1}, SimTime::seconds(1), SimTime::seconds(5)}};
  const auto out = sched::schedule_multichannel(
      tasks, /*channels=*/0, sched::TaskOrder::kDeclared,
      sched::ObjectOrder::kDeclared, nullptr);
  EXPECT_EQ(out.channels, 1u);
  EXPECT_EQ(out.tasks.size(), 1u);
}

// --- Regression: GridMap::random_route_choices with huge min_distance -----
// An unsatisfiable distance demand used to spin forever in the rejection
// loop (the assert guarding it was debug-only).

TEST(ContractRegressions, GridMapUnsatisfiableMinDistanceTerminates) {
  world::GridMap map(4, 4);
  Rng rng(7);
  const auto routes =
      map.random_route_choices(/*k=*/3, /*min_distance=*/1000, rng);
  EXPECT_LE(routes.size(), 3u);  // terminated; clamped to the diameter
  for (const auto& r : routes) EXPECT_FALSE(r.segments.empty());
}

// --- Regression: ScalarProcess::value_at with negative time ---------------
// A negative SimTime used to index the sample track with a huge unsigned
// value; now clamps to the t=0 sample.

TEST(ContractRegressions, ScalarValueAtNegativeTimeClampsToStart) {
  world::ScalarProcess p({{.mean = 1.0, .initial = 5.0}}, Rng(3));
  const double at_zero = p.value_at(0, SimTime::seconds(0));
  EXPECT_EQ(p.value_at(0, SimTime::seconds(-10)), at_zero);
}

// --- Regression: Name with empty components -------------------------------
// Empty components used to survive construction and break the
// to_string/parse round-trip ("a//b" parses as {a, b}).

TEST(ContractRegressions, NameDropsEmptyComponents) {
  const naming::Name a{"city", "", "grid"};
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.to_string(), "/city/grid");
  const naming::Name b(std::vector<std::string>{"", "x", "", "y"});
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(naming::Name::parse(b.to_string()), b);  // round-trip holds
}

// --- Regression: Rng guards fire in release builds ------------------------

TEST(ContractRegressionsDeathTest, RngBelowZeroAborts) {
  Rng rng(1);
  // below(0) was a release-build divide-by-zero (UB); now a hard contract.
  EXPECT_DEATH((void)rng.below(0), "contract failed");
}

// --- Regression: fault plan naming an unknown link ------------------------
// Out-of-range subjects used to index past the admin-state vectors in
// release builds; now the event is ignored with a clamp notice.

TEST(ContractRegressions, FaultPlanUnknownSubjectIsIgnored) {
  des::Simulator sim;
  net::Topology topo;
  const NodeId n0 = topo.add_node();
  const NodeId n1 = topo.add_node();
  topo.add_link(n0, n1, 1e6, SimTime::millis(1));
  topo.compute_routes();
  net::Network net(sim, topo);
  fault::FaultPlan plan;
  plan.events.push_back({fault::FaultEvent::Kind::kLinkDown,
                         SimTime::seconds(1), /*subject=*/12345});
  fault::FaultInjector inj(sim, topo, net, plan, /*seed=*/5);
  sim.run_until(SimTime::seconds(2));
  EXPECT_EQ(inj.stats().link_downs, 0u);  // nothing was applied
}

// --- Regression: miner sessions naming unknown decision points ------------

TEST(ContractRegressions, MinerSkipsUnknownPoints) {
  std::vector<workflow::DecisionPoint> pts(2);
  pts[0].name = "a";
  pts[1].name = "b";
  pts[0].id = workflow::PointId{0};
  pts[1].id = workflow::PointId{1};
  workflow::SequenceMiner miner(pts);
  miner.record_session({{workflow::PointId{0}, 0},
                        {workflow::PointId{7}, 0},  // unknown: skipped
                        {workflow::PointId{1}, 0}});
  EXPECT_EQ(miner.sessions(), 1u);
}

// --- Regression: reliability trust outside [0, 1] clamps ------------------

TEST(ContractRegressions, ReliabilityTrustOutOfRangeClamps) {
  fusion::ReliabilityProfile prof;
  prof.record(SourceId{1}, true, /*annotator_trust=*/7.5);   // clamps to 1
  prof.record(SourceId{1}, true, /*annotator_trust=*/-2.0);  // clamps to 0
  const double m = prof.reliability(SourceId{1});
  EXPECT_GE(m, 0.0);
  EXPECT_LE(m, 1.0);
}

}  // namespace
}  // namespace dde
