// The scenario plugin framework (src/scenario/runner.h): registry
// determinism, declarative spec round-trips, typo'd-knob rejection, and —
// the load-bearing property of the PR that introduced it — bit-for-bit
// equality between a registry-driven run and the legacy typed-config entry
// points it wraps.
#include "scenario/runner.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/contracts.h"
#include "scenario/route_scenario.h"
#include "scenario/spec.h"
#include "scenario/teleop_scenario.h"
#include "scenario/trigger_scenario.h"

namespace dde::scenario {
namespace {

TEST(ScenarioRegistry, ListsBuiltinsSorted) {
  const std::vector<std::string> names = scenario_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "route");
  EXPECT_EQ(names[1], "teleop");
  EXPECT_EQ(names[2], "trigger");
  // Deterministic across calls.
  EXPECT_EQ(scenario_names(), names);
}

TEST(ScenarioRegistry, FindUnknownReturnsNull) {
  EXPECT_EQ(find_scenario("no_such_scenario"), nullptr);
}

TEST(ScenarioRegistry, FindYieldsFreshInstances) {
  auto a = find_scenario("route");
  auto b = find_scenario("route");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->metadata().name, "route");
  EXPECT_FALSE(a->metadata().description.empty());
}

TEST(ScenarioRegistryDeathTest, DuplicateNameDies) {
  // Force builtin registration before the death-test fork (gtest runs
  // *DeathTest suites first, ahead of the tests that would otherwise have
  // touched the registry).
  ASSERT_FALSE(scenario_names().empty());
  const auto factory = +[]() -> std::unique_ptr<ScenarioRunner> {
    return find_scenario("route");
  };
  EXPECT_DEATH(register_scenario("route", factory),
               "duplicate scenario name");
}

TEST(ScenarioSpec, RoundTripsForEveryBuiltin) {
  for (const std::string& name : scenario_names()) {
    const auto runner = find_scenario(name);
    const ScenarioSpec spec = runner->spec();
    EXPECT_FALSE(spec.empty()) << name;
    EXPECT_EQ(ScenarioSpec::parse(spec.dump()), spec) << name;
    // Feeding a scenario its own full spec back is always legal and
    // changes nothing.
    auto other = find_scenario(name);
    other->configure(spec);
    EXPECT_EQ(other->spec(), spec) << name;
  }
}

// Every knob of every built-in plugin, with its default, as the spec dump
// prints it. A dropped or renamed knob, or a changed default, fails here
// (the round-trip test above compares a plugin only with itself).
TEST(ScenarioSpec, BuiltinSchemasArePinned) {
  const std::map<std::string, std::string> expected{
      {"route", R"(arrival = concurrent
broadcast_invalidation = true
chaos_crashes_per_node_min = 0
chaos_flaps_per_link_min = 0
chaos_max_downtime_s = 40
chaos_max_flap_s = 15
chaos_min_downtime_s = 10
chaos_min_flap_s = 2
chaos_restart_policy = ghost
chaos_window_end_s = 0
chaos_window_start_s = 0
corroboration_confidence = 0
coverage_radius = 1.25
critical_fraction = 0
critical_priority = 1
disruption_at_s = 0
disruption_fraction = 0.15
fast_ratio = 0.4
fast_validity_s = 30
fault_crash_at_s = 0
fault_crash_duration_s = 0
fault_crash_fraction = 0
fault_crash_recovery = true
fault_link_outage_fraction = 0
fault_outage_at_s = 0
fault_outage_duration_s = 0
fault_recovery_lease_s = 0
fault_restart_policy = ghost
grid_height = 8
grid_width = 8
horizon_s = 300
issue_jitter_s = 1
link_bandwidth_bps = 1e+06
link_latency_s = 0.002
link_queue_max_bytes = 0
link_queue_max_packets = 0
link_radius = 2.2
max_object_bytes = 1048576
mean_holding_s = 900
mean_interarrival_s = 60
min_object_bytes = 102400
min_route_distance = 4
node_count = 30
p_viable = 0.75
packet_loss = 0
queries_per_node = 3
query_deadline_s = 240
routes_per_query = 5
run_to_quiescence = false
scheme = lvfl
sensor_reliability = 1
slow_validity_s = 600
)"},
      {"teleop", R"(carrier_count = 3
cell_bandwidth_bps = 2e+06
cell_latency_s = 0.04
cell_loss = 0.05
chaos_crashes_per_node_min = 0
chaos_flaps_per_link_min = 0
chaos_max_downtime_s = 40
chaos_max_flap_s = 15
chaos_min_downtime_s = 10
chaos_min_flap_s = 2
chaos_restart_policy = ghost
chaos_window_end_s = 0
chaos_window_start_s = 0
core_bandwidth_bps = 5e+07
core_latency_s = 0.005
coverage = 0.85
critical_priority = 1
decision_period_s = 15
fault_crash_at_s = 0
fault_crash_duration_s = 0
fault_crash_fraction = 0
fault_crash_recovery = true
fault_link_outage_fraction = 0
fault_outage_at_s = 0
fault_outage_duration_s = 0
fault_recovery_lease_s = 0
fault_restart_policy = ghost
gap_loss = 0.9
grid_height = 8
grid_width = 8
horizon_s = 600
max_object_bytes = 61440
mean_burst_len = 8
min_object_bytes = 20480
multipath_redundancy = 2
object_validity_s = 4
query_deadline_s = 5
scheme = lvfl
vehicle_count = 6
vehicle_speed = 4
)"},
      {"trigger", R"(cameras_per_query = 3
coverage_radius = 1.25
event_rate_per_hour = 12
grid_height = 5
grid_width = 5
horizon_s = 3600
link_bandwidth_bps = 1e+06
link_radius = 2.4
node_count = 14
query_deadline_s = 60
scheme = lvfl
watch_period_s = 5
)"},
  };
  ASSERT_EQ(scenario_names().size(), expected.size());
  for (const auto& [name, dump] : expected) {
    const auto runner = find_scenario(name);
    ASSERT_NE(runner, nullptr) << name;
    EXPECT_EQ(runner->spec().dump(), dump) << name;
  }
}

TEST(ScenarioSpecDeathTest, UnknownKeyDies) {
  for (const std::string& name : scenario_names()) {
    const auto runner = find_scenario(name);
    ScenarioSpec typo;
    typo.set("definitely_not_a_knob", 1);
    EXPECT_DEATH(runner->configure(typo), "unknown key") << name;
  }
}

// --- registry runs pin bit-for-bit to the legacy entry points ------------

TEST(ScenarioRegistry, RouteMatchesLegacyBitForBit) {
  ScenarioSpec spec;
  spec.set("grid_width", 6);
  spec.set("grid_height", 6);
  spec.set("node_count", 16);
  spec.set("queries_per_node", 2);
  spec.set("fast_ratio", 0.3);
  spec.set("horizon_s", 300);
  spec.set("scheme", "lvfl");

  ScenarioConfig cfg = route_config_from_spec(spec);
  cfg.seed = 11;
  const ScenarioResult legacy = run_route_scenario(cfg);

  auto runner = find_scenario("route");
  runner->configure(spec);
  const ScenarioOutcome out = runner->run(11);

  EXPECT_EQ(out.at("queries"), static_cast<double>(legacy.queries));
  EXPECT_EQ(out.at("queries_resolved"),
            static_cast<double>(legacy.metrics.queries_resolved));
  EXPECT_EQ(out.at("events"), static_cast<double>(legacy.events));
  EXPECT_EQ(out.at("resolution_ratio"), legacy.resolution_ratio());
  EXPECT_EQ(out.at("mean_latency_s"), legacy.metrics.mean_latency_s());
  EXPECT_EQ(out.at("total_megabytes"), legacy.total_megabytes());
}

TEST(ScenarioRegistry, RouteOmitsAccuracyWhenNothingWasAudited) {
  // A 1 s horizon resolves a few queries but commits no route, so there is
  // no accuracy to report: the key is absent rather than a perfect 1.
  ScenarioSpec spec;
  spec.set("horizon_s", 1);
  auto runner = find_scenario("route");
  runner->configure(spec);
  const ScenarioOutcome out = runner->run(1);
  EXPECT_GT(out.at("queries_resolved"), 0.0);
  EXPECT_EQ(out.at("decisions_audited"), 0.0);
  EXPECT_EQ(out.metrics.count("decision_accuracy"), 0u);

  ScenarioConfig cfg = route_config_from_spec(spec);
  cfg.seed = 1;
  EXPECT_FALSE(run_route_scenario(cfg).decision_accuracy().has_value());

  // With audits the key is there and equals correct / audited.
  cfg.horizon = SimTime::seconds(600);
  const ScenarioResult full = run_route_scenario(cfg);
  ASSERT_GT(full.totals.audited, 0u);
  ScenarioSpec long_spec;
  long_spec.set("horizon_s", 600);
  auto long_runner = find_scenario("route");
  long_runner->configure(long_spec);
  EXPECT_EQ(long_runner->run(1).at("decision_accuracy"),
            static_cast<double>(full.totals.correct) /
                static_cast<double>(full.totals.audited));
}

TEST(ScenarioRegistry, TriggerMatchesLegacyBitForBit) {
  TriggerScenarioConfig cfg;
  cfg.horizon = SimTime::seconds(1200);
  cfg.seed = 5;
  const TriggerScenarioResult legacy = run_trigger_scenario(cfg);

  ScenarioSpec spec;
  spec.set("horizon_s", 1200);
  auto runner = find_scenario("trigger");
  runner->configure(spec);
  const ScenarioOutcome out = runner->run(5);

  EXPECT_EQ(out.at("events"), static_cast<double>(legacy.events));
  EXPECT_EQ(out.at("queries_issued"),
            static_cast<double>(legacy.queries_issued));
  EXPECT_EQ(out.at("queries_resolved"),
            static_cast<double>(legacy.metrics.queries_resolved));
  EXPECT_EQ(out.at("resolution_ratio"), legacy.resolution_ratio());
  EXPECT_EQ(out.at("reactions"),
            static_cast<double>(legacy.reaction_s.size()));
}

TEST(ScenarioRegistry, TeleopMatchesLegacyBitForBit) {
  TeleopScenarioConfig cfg;
  cfg.horizon = SimTime::seconds(120);
  cfg.seed = 3;
  const TeleopScenarioResult legacy = run_teleop_scenario(cfg);

  ScenarioSpec spec;
  spec.set("horizon_s", 120);
  auto runner = find_scenario("teleop");
  runner->configure(spec);
  const ScenarioOutcome out = runner->run(3);

  EXPECT_EQ(out.at("queries"), static_cast<double>(legacy.queries_issued));
  EXPECT_EQ(out.at("deadline_hits"),
            static_cast<double>(legacy.deadline_hits));
  EXPECT_EQ(out.at("deadline_hit_rate"), legacy.deadline_hit_rate());
  EXPECT_EQ(out.at("events"), static_cast<double>(legacy.events));
  EXPECT_EQ(out.at("replica_copies"),
            static_cast<double>(legacy.replica_copies));
}

// --- lifecycle ------------------------------------------------------------

TEST(ScenarioRunner, ResetAllowsReconfigureAndRerun) {
  auto runner = find_scenario("teleop");
  ScenarioSpec spec;
  spec.set("horizon_s", 120);
  runner->configure(spec);
  const ScenarioOutcome a = runner->run(2);
  runner->reset();
  const ScenarioOutcome b = runner->run(2);
  EXPECT_EQ(a.metrics, b.metrics);  // setup() after reset() is a clean redo
}

// --- the teleop plugin's headline property --------------------------------

TEST(TeleopScenario, RedundancyLiftsDeadlineHitRateUnderBurstyLoss) {
  double hit[2] = {0.0, 0.0};
  for (std::uint64_t seed : {1, 2}) {
    for (std::size_t k : {std::size_t{1}, std::size_t{3}}) {
      TeleopScenarioConfig cfg;
      cfg.multipath_redundancy = k;
      cfg.horizon = SimTime::seconds(300);
      cfg.seed = seed;
      const auto r = run_teleop_scenario(cfg);
      hit[k == 3] += r.deadline_hit_rate() / 2.0;
      if (k == 1) {
        EXPECT_EQ(r.replica_copies, 0u);
        EXPECT_EQ(r.replica_duplicates, 0u);
      } else {
        EXPECT_GT(r.replica_copies, 0u);
      }
    }
  }
  EXPECT_GT(hit[1], hit[0] + 0.15);
}

// --- knob validation regressions (PR 6): silently-ignored knobs now clamp -

TEST(TriggerScenario, NonPositiveEventRateClampsToDefault) {
  const long before = contracts::clamp_notes_emitted();
  TriggerScenarioConfig bad;
  bad.event_rate_per_hour = 0.0;
  bad.horizon = SimTime::seconds(600);
  const auto clamped = run_trigger_scenario(bad);

  TriggerScenarioConfig good;  // default event_rate_per_hour = 12
  good.horizon = SimTime::seconds(600);
  const auto reference = run_trigger_scenario(good);

  EXPECT_EQ(clamped.events, reference.events);
  EXPECT_EQ(clamped.metrics.queries_resolved,
            reference.metrics.queries_resolved);
  EXPECT_GT(contracts::clamp_notes_emitted(), before);
}

TEST(TriggerScenario, NonPositiveWatchPeriodClampsToDefault) {
  TriggerScenarioConfig bad;
  bad.watch_period = SimTime::zero();
  bad.horizon = SimTime::seconds(600);
  const auto clamped = run_trigger_scenario(bad);

  TriggerScenarioConfig good;  // default watch_period = 5 s
  good.horizon = SimTime::seconds(600);
  const auto reference = run_trigger_scenario(good);

  EXPECT_EQ(clamped.events, reference.events);
  EXPECT_EQ(clamped.queries_issued, reference.queries_issued);
}

TEST(RouteScenarioDeathTest, ZeroNodesAbortsBeforeTheHeraldClamp) {
  // The empty-network herald clamp in the disruption handler is
  // defense-in-depth: the public entry rejects a world with no sensors
  // (and thus no nodes) long before a disruption could fire.
  ScenarioConfig cfg;
  cfg.node_count = 0;
  cfg.queries_per_node = 0;
  cfg.disruption_at = SimTime::seconds(10);
  cfg.broadcast_invalidation = true;
  EXPECT_DEATH((void)run_route_scenario(cfg), "at least one sensor");
}

TEST(TeleopScenario, ZeroRedundancyClampsToSinglePath) {
  TeleopScenarioConfig bad;
  bad.multipath_redundancy = 0;
  bad.horizon = SimTime::seconds(120);
  const auto clamped = run_teleop_scenario(bad);

  TeleopScenarioConfig good;
  good.multipath_redundancy = 1;
  good.horizon = SimTime::seconds(120);
  const auto reference = run_teleop_scenario(good);

  EXPECT_EQ(clamped.events, reference.events);
  EXPECT_EQ(clamped.bytes_sent, reference.bytes_sent);
  EXPECT_EQ(clamped.replica_copies, 0u);
}

TEST(TeleopScenario, FaultAndChaosBurstsAreClampedOff) {
  // The scenario owns the loss model, so a configured burst channel, from
  // the fault spec or the chaos spec, must change nothing.
  TeleopScenarioConfig plain;
  plain.horizon = SimTime::seconds(120);
  plain.faults.node_crash_fraction = 0.3;
  plain.faults.crash_at = SimTime::seconds(30);
  plain.faults.crash_duration = SimTime::seconds(20);
  const auto reference = run_teleop_scenario(plain);

  for (const bool chaos : {false, true}) {
    TeleopScenarioConfig bursty = plain;
    (chaos ? bursty.chaos.burst : bursty.faults.burst) =
        fault::GilbertElliottParams::for_average_loss(0.3, 4.0);
    const auto clamped = run_teleop_scenario(bursty);
    EXPECT_EQ(clamped.events, reference.events) << chaos;
    EXPECT_EQ(clamped.bytes_sent, reference.bytes_sent) << chaos;
    EXPECT_EQ(clamped.faults.burst_drops, 0u) << chaos;
  }
}

}  // namespace
}  // namespace dde::scenario
