#include "scenario/route_scenario.h"
#include "scenario/trigger_scenario.h"

#include <gtest/gtest.h>

namespace dde::scenario {
namespace {

ScenarioConfig small_config(athena::Scheme scheme, std::uint64_t seed = 7) {
  ScenarioConfig cfg;
  cfg.grid_width = 6;
  cfg.grid_height = 6;
  cfg.node_count = 16;
  cfg.queries_per_node = 2;
  cfg.scheme = scheme;
  cfg.seed = seed;
  cfg.horizon = SimTime::seconds(300);
  return cfg;
}

TEST(Scenario, RunsToCompletion) {
  const auto r = run_route_scenario(small_config(athena::Scheme::kLvfl));
  EXPECT_EQ(r.queries, 32u);
  EXPECT_EQ(r.metrics.queries_issued, 32u);
  EXPECT_EQ(r.metrics.queries_resolved + r.metrics.queries_failed, 32u);
  EXPECT_GT(r.events, 0u);
  EXPECT_GT(r.traffic.bytes, 0u);
}

TEST(Scenario, DeterministicForSameSeed) {
  const auto a = run_route_scenario(small_config(athena::Scheme::kLvf, 3));
  const auto b = run_route_scenario(small_config(athena::Scheme::kLvf, 3));
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.traffic, b.traffic);
  EXPECT_EQ(a.events, b.events);
}

TEST(Scenario, DifferentSeedsDiffer) {
  const auto a = run_route_scenario(small_config(athena::Scheme::kLvf, 1));
  const auto b = run_route_scenario(small_config(athena::Scheme::kLvf, 2));
  // Different worlds — event counts virtually never coincide.
  EXPECT_NE(a.events, b.events);
}

TEST(Scenario, DecisionDrivenResolvesMostQueries) {
  auto cfg = small_config(athena::Scheme::kLvfl);
  cfg.fast_ratio = 0.4;
  const auto r = run_route_scenario(cfg);
  EXPECT_GE(r.resolution_ratio(), 0.85);
}

TEST(Scenario, ComprehensiveUsesMoreBandwidthThanDecisionDriven) {
  double cmp_mb = 0;
  double lvfl_mb = 0;
  for (std::uint64_t seed : {1, 2, 3}) {
    cmp_mb +=
        run_route_scenario(small_config(athena::Scheme::kCmp, seed))
            .total_megabytes();
    lvfl_mb +=
        run_route_scenario(small_config(athena::Scheme::kLvfl, seed))
            .total_megabytes();
  }
  EXPECT_GT(cmp_mb, 1.5 * lvfl_mb);
}

TEST(Scenario, SourceSelectionReducesRequests) {
  const auto cmp = run_route_scenario(small_config(athena::Scheme::kCmp));
  const auto slt = run_route_scenario(small_config(athena::Scheme::kSlt));
  EXPECT_GT(cmp.metrics.object_requests, slt.metrics.object_requests);
}

TEST(Scenario, HighDynamicsHurtsBaselineMoreThanLvf) {
  double cmp_ratio = 0;
  double lvf_ratio = 0;
  for (std::uint64_t seed : {1, 2, 3, 4}) {
    auto c = small_config(athena::Scheme::kCmp, seed);
    c.fast_ratio = 1.0;
    cmp_ratio += run_route_scenario(c).resolution_ratio() / 4;
    auto l = small_config(athena::Scheme::kLvf, seed);
    l.fast_ratio = 1.0;
    lvf_ratio += run_route_scenario(l).resolution_ratio() / 4;
  }
  EXPECT_GE(lvf_ratio, cmp_ratio);
}

TEST(Scenario, ZeroDynamicsResolvesNearlyEverything) {
  for (athena::Scheme s : {athena::Scheme::kCmp, athena::Scheme::kLvfl}) {
    auto cfg = small_config(s);
    cfg.fast_ratio = 0.0;
    const auto r = run_route_scenario(cfg);
    EXPECT_GE(r.resolution_ratio(), 0.9) << to_string(s);
  }
}

TEST(Scenario, ConfigOverrideDisablesPrefetch) {
  auto cfg = small_config(athena::Scheme::kLvfl);
  auto ac = athena::config_for(athena::Scheme::kLvfl);
  ac.prefetch = false;
  cfg.config_override = ac;
  const auto r = run_route_scenario(cfg);
  EXPECT_EQ(r.metrics.prefetch_pushes, 0u);
  EXPECT_EQ(r.metrics.announce_bytes, 0u);
}

TEST(Scenario, LabelSharingProducesLabelTraffic) {
  const auto lvfl = run_route_scenario(small_config(athena::Scheme::kLvfl));
  const auto lvf = run_route_scenario(small_config(athena::Scheme::kLvf));
  EXPECT_GT(lvfl.metrics.label_bytes, 0u);
  EXPECT_EQ(lvf.metrics.label_bytes, 0u);
}

TEST(Scenario, TrafficMatchesMetricBreakdown) {
  const auto r = run_route_scenario(small_config(athena::Scheme::kLvfl));
  EXPECT_EQ(r.traffic.bytes, r.metrics.total_bytes())
      << "network accounting must agree with protocol-level accounting";
}

TEST(Scenario, LatencyOnlyForResolvedQueries) {
  const auto r = run_route_scenario(small_config(athena::Scheme::kLvfl));
  if (r.metrics.queries_resolved > 0) {
    EXPECT_GE(r.metrics.mean_latency_s(), 0.0);
    EXPECT_LT(r.metrics.mean_latency_s(),
              small_config(athena::Scheme::kLvfl).query_deadline.to_seconds());
  }
}

TEST(Scenario, AuditCoversChosenRoutes) {
  const auto r = run_route_scenario(small_config(athena::Scheme::kLvfl));
  // Some queries choose a route; the audit must cover them and accuracy is
  // a valid ratio.
  EXPECT_GT(r.totals.audited, 0u);
  EXPECT_LE(r.totals.correct, r.totals.audited);
  ASSERT_TRUE(r.decision_accuracy().has_value());
  EXPECT_GE(*r.decision_accuracy(), 0.0);
  EXPECT_LE(*r.decision_accuracy(), 1.0);
}

/// The route scenario's long-run setup: 30 nodes, Poisson arrivals every
/// 60 s per node, horizon 60 s × queries + 600 s.
ScenarioConfig long_run_config(std::size_t queries_per_node) {
  ScenarioConfig cfg;
  cfg.arrival = ScenarioConfig::Arrival::kPoisson;
  cfg.mean_interarrival = SimTime::seconds(60);
  cfg.queries_per_node = queries_per_node;
  cfg.horizon = SimTime::seconds(
      60.0 * static_cast<double>(queries_per_node) + 600.0);
  cfg.seed = 1;
  return cfg;
}

TEST(Scenario, EveryCommittedDecisionIsAudited) {
  // Some nodes' arrivals run past the 3,600 s horizon: their issued
  // queries must still be audited, and only issued queries are counted.
  auto cfg = long_run_config(50);
  cfg.horizon = SimTime::seconds(3600);
  const auto r = run_route_scenario(cfg);
  const QueryTotals& t = r.totals;
  EXPECT_EQ(r.queries, r.metrics.queries_issued);
  EXPECT_LT(r.queries, 30u * 50u);
  EXPECT_GT(t.audited, 0u);
  EXPECT_GT(t.declined, 0u);
  EXPECT_EQ(t.audited + t.declined, t.normal.decided + t.critical.decided);
  EXPECT_EQ(t.normal.decided + t.critical.decided, r.metrics.queries_resolved);
}

TEST(Scenario, ResidentStateDoesNotGrowWithQueries) {
  // Per-node tables at the horizon hold what the last hour or so touched,
  // not every query the run issued: four times the queries (and horizon)
  // leaves them about the same size.
  const auto resident = [](std::size_t queries_per_node) {
    std::uint64_t sum = 0;
    for (const auto& p : run_route_scenario(long_run_config(queries_per_node))
                             .probes) {
      sum += p.active_queries + p.interest_entries + p.forwarded_entries +
             p.dedup_entries;
    }
    return sum;
  };
  const std::uint64_t at50 = resident(50);
  const std::uint64_t at200 = resident(200);
  EXPECT_GT(at50, 0u);
  EXPECT_LT(at200, 2 * at50) << "at 50: " << at50 << ", at 200: " << at200;
}

TEST(Scenario, PerfectSensorsShortValidityIsAccurate) {
  auto cfg = small_config(athena::Scheme::kLvfl);
  cfg.fast_ratio = 0.0;
  cfg.slow_validity = SimTime::seconds(120);
  cfg.mean_holding = SimTime::seconds(7200);
  const auto r = run_route_scenario(cfg);
  ASSERT_TRUE(r.decision_accuracy().has_value());
  EXPECT_GE(*r.decision_accuracy(), 0.9);
}

TEST(Scenario, NoiseDegradesAccuracyAndCorroborationRecoversIt) {
  auto base = small_config(athena::Scheme::kLvfl);
  base.fast_ratio = 0.0;
  base.slow_validity = SimTime::seconds(120);
  base.mean_holding = SimTime::seconds(7200);

  // A run this small audits only a few committed routes (2 to 11), so
  // accuracy is pooled over the audits of 30 seeds: at the rates these
  // arms show over many seeds (~0.6 noisy, ~0.8 corroborated, with ~7 and
  // ~3 audits per seed) that puts the margin below about 2.5 standard
  // errors of the difference.
  QueryTotals noisy_totals;
  QueryTotals corro_totals;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    auto noisy = base;
    noisy.seed = seed;
    noisy.sensor_reliability = 0.75;
    const QueryTotals n = run_route_scenario(noisy).totals;
    noisy_totals.audited += n.audited;
    noisy_totals.correct += n.correct;
    auto corro = noisy;
    corro.corroboration_confidence = 0.85;
    const QueryTotals c = run_route_scenario(corro).totals;
    corro_totals.audited += c.audited;
    corro_totals.correct += c.correct;
  }
  const auto accuracy = [](const QueryTotals& t) {
    return static_cast<double>(t.correct) / static_cast<double>(t.audited);
  };
  ASSERT_GT(noisy_totals.audited, 0u);
  ASSERT_GT(corro_totals.audited, 0u);
  const double noisy_acc = accuracy(noisy_totals);
  const double corro_acc = accuracy(corro_totals);
  EXPECT_LT(noisy_acc, 0.85) << "noise must hurt accuracy";
  EXPECT_GT(corro_acc, noisy_acc + 0.05)
      << "corroboration must recover accuracy";
}

TEST(Scenario, PoissonArrivalsSpreadIssueTimes) {
  auto cfg = small_config(athena::Scheme::kLvfl);
  cfg.arrival = ScenarioConfig::Arrival::kPoisson;
  cfg.mean_interarrival = SimTime::seconds(60);
  cfg.horizon = SimTime::seconds(700);
  const auto r = run_route_scenario(cfg);
  EXPECT_EQ(r.metrics.queries_issued, r.queries);
  EXPECT_EQ(r.metrics.queries_resolved + r.metrics.queries_failed, r.queries);
}

TEST(Scenario, PeriodicArrivalsDeterministic) {
  auto cfg = small_config(athena::Scheme::kLvf);
  cfg.arrival = ScenarioConfig::Arrival::kPeriodic;
  cfg.mean_interarrival = SimTime::seconds(60);
  cfg.horizon = SimTime::seconds(700);
  const auto a = run_route_scenario(cfg);
  const auto b = run_route_scenario(cfg);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.traffic, b.traffic);
}

TEST(Scenario, StaggeringReducesLatency) {
  double concurrent = 0;
  double staggered = 0;
  for (std::uint64_t seed : {1, 2, 3}) {
    auto c = small_config(athena::Scheme::kLvfl, seed);
    concurrent += run_route_scenario(c).metrics.mean_latency_s() / 3;
    auto p = small_config(athena::Scheme::kLvfl, seed);
    p.arrival = ScenarioConfig::Arrival::kPoisson;
    p.mean_interarrival = SimTime::seconds(60);
    p.horizon = SimTime::seconds(700);
    staggered += run_route_scenario(p).metrics.mean_latency_s() / 3;
  }
  EXPECT_LT(staggered, concurrent);
}

// Invariants every scheme must uphold on the full scenario.
class AllSchemesScenario : public ::testing::TestWithParam<athena::Scheme> {};

TEST_P(AllSchemesScenario, Deterministic) {
  const auto a = run_route_scenario(small_config(GetParam(), 11));
  const auto b = run_route_scenario(small_config(GetParam(), 11));
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.traffic, b.traffic);
  EXPECT_EQ(a.metrics, b.metrics);
}

TEST_P(AllSchemesScenario, EveryQueryAccountedFor) {
  const auto r = run_route_scenario(small_config(GetParam()));
  EXPECT_EQ(r.metrics.queries_resolved + r.metrics.queries_failed, r.queries);
  EXPECT_EQ(r.traffic.bytes, r.metrics.total_bytes());
}

TEST_P(AllSchemesScenario, ResolvesMajorityAtModerateDynamics) {
  auto cfg = small_config(GetParam());
  cfg.fast_ratio = 0.2;
  const auto r = run_route_scenario(cfg);
  EXPECT_GE(r.resolution_ratio(), 0.75) << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Schemes, AllSchemesScenario,
                         ::testing::Values(athena::Scheme::kCmp,
                                           athena::Scheme::kSlt,
                                           athena::Scheme::kLcf,
                                           athena::Scheme::kLvf,
                                           athena::Scheme::kLvfl),
                         [](const auto& param_info) {
                           return std::string(to_string(param_info.param));
                         });

TEST(Scenario, CriticalFractionMarksOutcomes) {
  auto cfg = small_config(athena::Scheme::kLvfl);
  cfg.critical_fraction = 0.5;
  const auto r = run_route_scenario(cfg);
  EXPECT_GT(r.totals.critical.issued, 0u);
  EXPECT_GT(r.totals.normal.issued, 0u);
}

TEST(Scenario, PacketLossStillAccountsQueries) {
  auto cfg = small_config(athena::Scheme::kLvf);
  cfg.packet_loss = 0.05;
  const auto r = run_route_scenario(cfg);
  EXPECT_EQ(r.metrics.queries_resolved + r.metrics.queries_failed, r.queries);
  EXPECT_GT(r.traffic.dropped, 0u);
}

TEST(Scenario, DisruptionWithInvalidationKeepsAccuracy) {
  auto base = small_config(athena::Scheme::kLvfl);
  base.fast_ratio = 0.0;
  base.slow_validity = SimTime::seconds(600);
  base.mean_holding = SimTime::seconds(36000);
  base.arrival = ScenarioConfig::Arrival::kPoisson;
  base.mean_interarrival = SimTime::seconds(40);
  base.horizon = SimTime::seconds(500);
  base.disruption_at = SimTime::seconds(60);

  auto post_accuracy = [&](bool invalidate) {
    double correct = 0;
    double total = 0;
    for (std::uint64_t seed : {1, 2, 3}) {
      auto cfg = base;
      cfg.seed = seed;
      cfg.broadcast_invalidation = invalidate;
      const QueryTotals t = run_route_scenario(cfg).totals;
      total += static_cast<double>(t.audited - t.audited_before);
      correct += static_cast<double>(t.correct - t.correct_before);
    }
    return total > 0 ? correct / total : 1.0;
  };
  const double with = post_accuracy(true);
  const double without = post_accuracy(false);
  EXPECT_GT(with, without + 0.15)
      << "invalidation must restore post-event decision accuracy";
}

TEST(TriggerScenario, EventsTriggerQueries) {
  TriggerScenarioConfig cfg;
  cfg.seed = 3;
  const auto r = run_trigger_scenario(cfg);
  EXPECT_GT(r.events, 0u);
  EXPECT_EQ(r.queries_issued, r.events);
  EXPECT_EQ(r.detection_s.size(), r.events);
}

TEST(TriggerScenario, DetectionBoundedBySamplingPeriod) {
  TriggerScenarioConfig cfg;
  cfg.seed = 4;
  cfg.watch_period = SimTime::seconds(5);
  const auto r = run_trigger_scenario(cfg);
  for (double d : r.detection_s) {
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 5.0 + 1e-9);
  }
}

TEST(TriggerScenario, MostIdentificationsResolve) {
  TriggerScenarioConfig cfg;
  cfg.seed = 5;
  const auto r = run_trigger_scenario(cfg);
  ASSERT_GT(r.queries_issued, 0u);
  EXPECT_GE(r.resolution_ratio(), 0.7);
  // Reaction = detection + retrieval; it must exceed detection and stay
  // within the decision deadline.
  for (double reaction : r.reaction_s) {
    EXPECT_GT(reaction, 0.0);
    EXPECT_LE(reaction, cfg.watch_period.to_seconds() +
                            cfg.query_deadline.to_seconds() + 1e-9);
  }
}

TEST(TriggerScenario, EventRateScalesWithConfig) {
  TriggerScenarioConfig slow;
  slow.seed = 6;
  slow.event_rate_per_hour = 4.0;
  TriggerScenarioConfig fast = slow;
  fast.event_rate_per_hour = 30.0;
  std::uint64_t slow_events = 0;
  std::uint64_t fast_events = 0;
  for (std::uint64_t seed : {6, 7, 8}) {
    slow.seed = seed;
    fast.seed = seed;
    slow_events += run_trigger_scenario(slow).events;
    fast_events += run_trigger_scenario(fast).events;
  }
  EXPECT_GT(fast_events, 2 * slow_events);
}

TEST(TriggerScenario, Deterministic) {
  TriggerScenarioConfig cfg;
  cfg.seed = 9;
  const auto a = run_trigger_scenario(cfg);
  const auto b = run_trigger_scenario(cfg);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.reaction_s, b.reaction_s);
}

}  // namespace
}  // namespace dde::scenario
