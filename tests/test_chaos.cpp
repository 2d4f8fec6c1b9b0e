// Crash-faithful restarts, the chaos harness, and the recovery protocol:
// plan-builder clamps, seeded chaos realization, quiesce-point invariants,
// the injector's transition-edge node hook, and the scenario-level pins —
// ghost churn stays byte-identical to the legacy restart path while cold
// churn drops in-flight queries and the recovery protocol wins them back.
#include "fault/chaos.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "des/simulator.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "fault/restart_policy.h"
#include "net/network.h"
#include "net/topology.h"
#include "scenario/route_scenario.h"
#include "scenario/teleop_scenario.h"

namespace dde::fault {
namespace {

/// Line topology 0 - 1 - ... - (n-1) at 1 Mbps / 1 ms.
struct Harness {
  des::Simulator sim;
  net::Topology topo;
  std::vector<NodeId> nodes;

  explicit Harness(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) nodes.push_back(topo.add_node());
    for (std::size_t i = 0; i + 1 < n; ++i) {
      topo.add_link(nodes[i], nodes[i + 1], 1e6, SimTime::millis(1));
    }
    topo.compute_routes();
  }
};

// --- FaultPlan / FaultSpec clamps ----------------------------------------

TEST(FaultPlanClamp, InvertedOutageIsDroppedNotScheduled) {
  // up_at <= down_at would run the repair first and leave the subject down
  // forever; both builders must clamp such an outage to a no-op.
  FaultPlan plan;
  plan.add_link_outage(LinkId{1}, SimTime::seconds(10), SimTime::seconds(10));
  plan.add_link_outage(LinkId{1}, SimTime::seconds(10), SimTime::seconds(5));
  plan.add_node_crash(NodeId{2}, SimTime::seconds(10), SimTime::seconds(10));
  plan.add_node_crash(NodeId{2}, SimTime::seconds(10), SimTime::seconds(3));
  EXPECT_TRUE(plan.empty()) << "inverted outages must schedule nothing";
  // The boundary just above the clamp still works.
  plan.add_node_crash(NodeId{2}, SimTime::seconds(10),
                      SimTime::seconds(10) + SimTime::micros(1));
  EXPECT_EQ(plan.events.size(), 2u);
}

TEST(FaultSpecClamp, OutOfRangeFractionsClampIntoUnitRange) {
  Harness h(6);
  FaultSpec spec;
  spec.link_outage_fraction = 1.7;  // clamps to 1.0: every pair downed
  spec.node_crash_fraction = -0.3;  // clamps to 0.0: nobody crashes
  spec.outage_at = SimTime::seconds(5);
  spec.crash_at = SimTime::seconds(5);
  Rng rng(3);
  const FaultPlan plan = spec.realize(h.topo, rng);
  std::size_t downs = 0;
  for (const auto& ev : plan.events) {
    EXPECT_EQ(ev.kind, FaultEvent::Kind::kLinkDown);
    ++downs;
  }
  EXPECT_EQ(downs, h.topo.link_count());
}

// --- RestartPolicy --------------------------------------------------------

TEST(RestartPolicyNames, RoundTripAndRejectUnknown) {
  for (RestartPolicy p :
       {RestartPolicy::kGhost, RestartPolicy::kCold, RestartPolicy::kWarm}) {
    RestartPolicy out = RestartPolicy::kGhost;
    ASSERT_TRUE(parse_restart_policy(to_string(p), &out));
    EXPECT_EQ(out, p);
  }
  RestartPolicy out = RestartPolicy::kCold;
  EXPECT_FALSE(parse_restart_policy("lukewarm", &out));
  EXPECT_EQ(out, RestartPolicy::kCold) << "failed parse leaves *out alone";
}

// --- ChaosSpec realization ------------------------------------------------

ChaosSpec churn_spec() {
  ChaosSpec spec;
  spec.window_start = SimTime::seconds(20);
  spec.window_end = SimTime::seconds(200);
  spec.crashes_per_node_min = 1.0;
  spec.flaps_per_link_min = 0.5;
  spec.restart_policy = RestartPolicy::kCold;
  return spec;
}

TEST(Chaos, EmptySpecRealizesEmptyPlanCarryingPolicy) {
  Harness h(4);
  ChaosSpec spec;
  spec.restart_policy = RestartPolicy::kWarm;
  EXPECT_TRUE(spec.empty());
  Rng rng(1);
  const FaultPlan plan = realize_chaos(spec, h.topo, rng);
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.restart_policy, RestartPolicy::kWarm);
}

TEST(Chaos, RealizeIsDeterministicPerRngState) {
  Harness h(8);
  const ChaosSpec spec = churn_spec();
  auto schedule = [&](std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::tuple<int, std::uint64_t, std::uint64_t>> out;
    for (const auto& ev : realize_chaos(spec, h.topo, rng).events) {
      out.emplace_back(static_cast<int>(ev.kind), ev.at.count(), ev.subject);
    }
    return out;
  };
  const auto a = schedule(9);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, schedule(9));
  EXPECT_NE(a, schedule(10));  // overwhelmingly likely
}

TEST(Chaos, CrashesStayInWindowRespectDowntimeAndSpareNode0) {
  Harness h(8);
  const ChaosSpec spec = churn_spec();
  Rng rng(4);
  const FaultPlan plan = realize_chaos(spec, h.topo, rng);
  EXPECT_EQ(plan.restart_policy, RestartPolicy::kCold);
  // Every down has a matching later up; pair them per subject in order.
  std::vector<std::pair<std::uint64_t, SimTime>> open;  // (subject, down_at)
  std::size_t crashes = 0;
  for (const auto& ev : plan.events) {
    if (ev.kind == FaultEvent::Kind::kNodeDown) {
      EXPECT_NE(ev.subject, 0u) << "spare_node0 must hold";
      EXPECT_GE(ev.at, spec.window_start);
      EXPECT_LT(ev.at, spec.window_end);
      open.emplace_back(ev.subject, ev.at);
      ++crashes;
    } else if (ev.kind == FaultEvent::Kind::kNodeUp) {
      ASSERT_FALSE(open.empty());
      // Chaos emits each crash's up right after its down, same subject.
      EXPECT_EQ(ev.subject, open.back().first);
      const SimTime down = open.back().second;
      open.pop_back();
      EXPECT_GE(ev.at - down, spec.min_downtime);
      EXPECT_LE(ev.at - down, spec.max_downtime);
    }
  }
  EXPECT_TRUE(open.empty()) << "every chaos crash must schedule a restart";
  EXPECT_GT(crashes, 0u);
}

TEST(Chaos, FlapsDownBothDirectionsOfAPairTogether) {
  Harness h(5);
  ChaosSpec spec;
  spec.window_start = SimTime::seconds(10);
  spec.window_end = SimTime::seconds(100);
  spec.flaps_per_link_min = 1.0;
  Rng rng(6);
  const FaultPlan plan = realize_chaos(spec, h.topo, rng);
  // Each flap emits two whole outages — (down, up) for the forward link
  // then the same instants for the reverse link.
  ASSERT_EQ(plan.events.size() % 4, 0u);
  std::size_t flaps = 0;
  for (std::size_t i = 0; i < plan.events.size(); i += 4) {
    const auto& fwd_down = plan.events[i];
    const auto& fwd_up = plan.events[i + 1];
    const auto& rev_down = plan.events[i + 2];
    const auto& rev_up = plan.events[i + 3];
    EXPECT_EQ(fwd_down.kind, FaultEvent::Kind::kLinkDown);
    EXPECT_EQ(fwd_up.kind, FaultEvent::Kind::kLinkUp);
    EXPECT_EQ(rev_down.kind, FaultEvent::Kind::kLinkDown);
    EXPECT_EQ(rev_up.kind, FaultEvent::Kind::kLinkUp);
    EXPECT_EQ(fwd_down.at, rev_down.at);
    EXPECT_EQ(fwd_up.at, rev_up.at);
    EXPECT_EQ(fwd_down.subject, fwd_up.subject);
    EXPECT_EQ(rev_down.subject, rev_up.subject);
    EXPECT_NE(fwd_down.subject, rev_down.subject);
    ++flaps;
  }
  EXPECT_GT(flaps, 0u);
}

// --- quiesce-point invariants --------------------------------------------

TEST(ChaosInvariants, CleanProbesPass) {
  std::vector<NodeStateProbe> probes(3);
  for (std::size_t i = 0; i < probes.size(); ++i) probes[i].node = i;
  EXPECT_TRUE(check_quiesce_invariants(probes).ok());
  EXPECT_TRUE(check_quiesce_invariants({}).ok());
}

TEST(ChaosInvariants, ResidualStateIsFlaggedPerField) {
  // Known-bad fixture: node 7 leaks one entry of every kind.
  NodeStateProbe bad;
  bad.node = 7;
  bad.active_queries = 1;
  bad.interest_entries = 2;
  bad.forwarded_entries = 3;
  bad.dedup_entries = 4;
  const auto report = check_quiesce_invariants({NodeStateProbe{}, bad});
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.violations.size(), 4u);
  for (const std::string& v : report.violations) {
    EXPECT_NE(v.find("node 7"), std::string::npos) << v;
  }
}

TEST(ReplayDigest, OrderSensitiveAndSeedsDistinct) {
  ReplayDigest ab;
  ab.fold(std::uint64_t{1});
  ab.fold(std::uint64_t{2});
  ReplayDigest ba;
  ba.fold(std::uint64_t{2});
  ba.fold(std::uint64_t{1});
  EXPECT_NE(ab.value(), ba.value());
  ReplayDigest ab2;
  ab2.fold(std::uint64_t{1});
  ab2.fold(std::uint64_t{2});
  EXPECT_EQ(ab.value(), ab2.value());
  // Doubles fold by exact bit pattern.
  ReplayDigest d1;
  d1.fold(0.1);
  ReplayDigest d2;
  d2.fold(0.1 + 1e-18);  // same double after rounding
  EXPECT_EQ(d1.value(), d2.value());
}

// --- injector node hook ---------------------------------------------------

TEST(FaultInjector, NodeHookFiresOncePerActualTransition) {
  // Double-crash and double-restart events are idempotent no-ops: the hook
  // (and the stats) must see exactly one down and one up edge.
  Harness h(3);
  net::Network net(h.sim, h.topo);
  FaultPlan plan;
  plan.events.push_back(
      {FaultEvent::Kind::kNodeDown, SimTime::seconds(1), 1});
  plan.events.push_back(
      {FaultEvent::Kind::kNodeDown, SimTime::seconds(2), 1});  // redundant
  plan.events.push_back({FaultEvent::Kind::kNodeUp, SimTime::seconds(5), 1});
  plan.events.push_back(
      {FaultEvent::Kind::kNodeUp, SimTime::seconds(6), 1});  // redundant
  FaultInjector inj(h.sim, h.topo, net, std::move(plan), 99);
  std::vector<std::pair<std::uint64_t, bool>> calls;
  inj.set_node_hook([&](NodeId node, bool up) {
    calls.emplace_back(node.value(), up);
  });
  h.sim.run_until();
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[0], (std::pair<std::uint64_t, bool>{1, false}));
  EXPECT_EQ(calls[1], (std::pair<std::uint64_t, bool>{1, true}));
  EXPECT_EQ(inj.stats().node_downs, 1u);
  EXPECT_EQ(inj.stats().node_ups, 1u);
}

}  // namespace
}  // namespace dde::fault

// --- scenario-level pins --------------------------------------------------

namespace dde::scenario {
namespace {

/// Small cold-churn workload: Poisson arrivals across the churn window with
/// deadlines short enough that a crash mid-retrieval drops real work.
ScenarioConfig churn_config(fault::RestartPolicy policy,
                            std::uint64_t seed = 7) {
  ScenarioConfig cfg;
  cfg.grid_width = 6;
  cfg.grid_height = 6;
  cfg.node_count = 16;
  cfg.queries_per_node = 2;
  cfg.arrival = ScenarioConfig::Arrival::kPoisson;
  cfg.mean_interarrival = SimTime::seconds(40);
  cfg.query_deadline = SimTime::seconds(60);
  cfg.horizon = SimTime::seconds(300);
  cfg.seed = seed;
  cfg.chaos.window_start = SimTime::seconds(20);
  cfg.chaos.window_end = SimTime::seconds(260);
  cfg.chaos.crashes_per_node_min = 1.0;
  cfg.chaos.restart_policy = policy;
  return cfg;
}

/// Order-sensitive digest of a run's observable outcome.
std::uint64_t digest(const ScenarioResult& r) {
  fault::ReplayDigest d;
  const auto fold = [&d](const char*, auto v) { d.fold(v); };
  for_each_field(r.metrics, fold);
  for_each_field(r.traffic, fold);
  d.fold(r.events);
  d.fold(r.totals.digest.value());
  return d.value();
}

TEST(ScenarioChaos, GhostChurnIsInertAndIgnoresRecoveryKnob) {
  // Under the default ghost policy the whole crash/recovery machinery must
  // vanish: no crashed queries, no restarts, no hellos — and flipping
  // fault_crash_recovery must not change a single byte of the run.
  auto on = churn_config(fault::RestartPolicy::kGhost);
  auto off = on;
  off.fault_crash_recovery = false;
  const auto a = run_route_scenario(on);
  const auto b = run_route_scenario(off);
  EXPECT_GT(a.faults.node_downs, 0u) << "the churn itself must be real";
  EXPECT_EQ(a.metrics.queries_failed_crash, 0u);
  EXPECT_EQ(a.metrics.node_restarts, 0u);
  EXPECT_EQ(a.metrics.recovery_hellos, 0u);
  EXPECT_EQ(a.metrics.control_bytes, 0u);
  EXPECT_EQ(digest(a), digest(b));
}

TEST(ScenarioChaos, ColdChurnDropsInFlightWorkAndRecovers) {
  const auto r = run_route_scenario(churn_config(fault::RestartPolicy::kCold));
  EXPECT_GT(r.metrics.node_restarts, 0u);
  EXPECT_GT(r.metrics.queries_failed_crash, 0u);
  EXPECT_GT(r.metrics.recovery_hellos, 0u);
  EXPECT_GT(r.metrics.control_bytes, 0u);
  // Crash-failed queries are their own terminal bucket, mirrored into the
  // retired-query totals.
  EXPECT_EQ(r.totals.normal.crashed + r.totals.critical.crashed,
            r.metrics.queries_failed_crash);
  // And the run differs from the ghost twin (state loss is observable).
  const auto g = run_route_scenario(churn_config(fault::RestartPolicy::kGhost));
  EXPECT_NE(digest(r), digest(g));
}

TEST(ScenarioChaos, PerKindByteBillingIsPinned) {
  // Every message kind, billed to its own counter: requests, announces,
  // foreground objects, prefetch pushes, label shares/replies and restart
  // hellos all occur in this run. The values were first captured when each
  // send site still passed its size and counter by hand, and re-captured
  // when the workload became streamed per node and again when a route draw
  // stopped drawing after its pair's last path.
  const auto r = run_route_scenario(churn_config(fault::RestartPolicy::kCold));
  EXPECT_EQ(r.metrics.request_bytes, 5100u);
  EXPECT_EQ(r.metrics.announce_bytes, 42800u);
  EXPECT_EQ(r.metrics.object_bytes, 10108401u);
  EXPECT_EQ(r.metrics.push_bytes, 22148477u);
  EXPECT_EQ(r.metrics.label_bytes, 12800u);
  EXPECT_EQ(r.metrics.control_bytes, 18720u);
}

TEST(ScenarioChaos, ColdChurnReplaysBitForBit) {
  const auto cfg = churn_config(fault::RestartPolicy::kCold, 11);
  EXPECT_EQ(digest(run_route_scenario(cfg)), digest(run_route_scenario(cfg)));
}

TEST(ScenarioChaos, QuiescenceDrainsEveryResidualTable) {
  auto cfg = churn_config(fault::RestartPolicy::kCold, 5);
  cfg.chaos.flaps_per_link_min = 0.1;
  cfg.run_to_quiescence = true;
  const auto r = run_route_scenario(cfg);
  ASSERT_EQ(r.probes.size(), 16u);
  const auto report = fault::check_quiesce_invariants(r.probes);
  EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                   ? ""
                                   : report.violations.front());
}

TEST(ScenarioChaos, TeleopColdChurnRestartsAndStaysDeterministic) {
  TeleopScenarioConfig cfg;
  cfg.horizon = SimTime::seconds(300);
  cfg.seed = 3;
  cfg.chaos.window_start = SimTime::seconds(20);
  cfg.chaos.window_end = SimTime::seconds(260);
  cfg.chaos.crashes_per_node_min = 1.0;
  cfg.chaos.restart_policy = fault::RestartPolicy::kCold;
  const auto a = run_teleop_scenario(cfg);
  const auto b = run_teleop_scenario(cfg);
  EXPECT_GT(a.faults.node_downs, 0u);
  EXPECT_GT(a.metrics.node_restarts, 0u);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.events, b.events);
}

}  // namespace
}  // namespace dde::scenario
