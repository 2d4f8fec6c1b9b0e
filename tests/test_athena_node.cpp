#include "athena/node.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "athena/directory.h"
#include "des/simulator.h"

namespace dde::athena {
namespace {

using world::SensorInfo;

decision::DnfExpr single_label(std::uint64_t l) {
  decision::DnfExpr e;
  e.add_disjunct(decision::Conjunction{{decision::Term{LabelId{l}, false}}});
  return e;
}

/// Line network A(0) — B(1) — C(2).
///   sensor 0 @ C covers segments {0 (viable), 1 (blocked)}, 1000 B, 100 s.
///   sensor 1 @ A covers segment {2 (viable)}, 800 B, 100 s.
///   sensor 2 @ C covers segment {3 (viable)}, 1000 B, 10 ms (stale-on-arrival).
struct Fixture {
  world::GridMap map{4, 4};
  world::ViabilityProcess truth;
  world::SensorField field;
  net::Topology topo;
  std::vector<NodeId> nodes;
  des::Simulator sim;
  net::Network net;
  Directory dir;
  AthenaMetrics metrics;
  std::vector<std::unique_ptr<AthenaNode>> athena;

  static std::vector<world::SegmentDynamics> dynamics(std::size_t n) {
    std::vector<world::SegmentDynamics> d(
        n, world::SegmentDynamics{1.0, SimTime::seconds(1e7)});
    d[1].p_viable = 0.0;  // segment 1 is blocked
    return d;
  }

  static std::vector<SensorInfo> sensors() {
    SensorInfo s0;
    s0.id = SourceId{0};
    s0.name = naming::Name::parse("/t/c");
    s0.covers = {SegmentId{0}, SegmentId{1}};
    s0.object_bytes = 1000;
    s0.validity = SimTime::seconds(100);
    SensorInfo s1;
    s1.id = SourceId{1};
    s1.name = naming::Name::parse("/t/a");
    s1.covers = {SegmentId{2}};
    s1.object_bytes = 800;
    s1.validity = SimTime::seconds(100);
    SensorInfo s2;
    s2.id = SourceId{2};
    s2.name = naming::Name::parse("/t/c2");
    s2.covers = {SegmentId{3}};
    s2.object_bytes = 1000;
    s2.validity = SimTime::millis(10);
    s2.rate = world::ChangeRate::kFast;
    return {s0, s1, s2};
  }

  explicit Fixture(const AthenaConfig& cfg = config_for(Scheme::kLvfl))
      : truth(dynamics(map.segment_count()), Rng(1)),
        field(map, truth, sensors()),
        topo(),
        nodes(),
        sim(),
        net(make_net()),
        dir(topo, field, {NodeId{2}, NodeId{0}, NodeId{2}},
            {{LabelId{0}, 0.9},
             {LabelId{1}, 0.1},
             {LabelId{2}, 0.9},
             {LabelId{3}, 0.9}}) {
    for (std::size_t i = 0; i < 3; ++i) {
      athena.push_back(std::make_unique<AthenaNode>(NodeId{i}, net, dir, field,
                                                    cfg, metrics));
    }
  }

  net::Network make_net() {
    for (int i = 0; i < 3; ++i) nodes.push_back(topo.add_node());
    topo.add_link(nodes[0], nodes[1], 1e6, SimTime::millis(1));
    topo.add_link(nodes[1], nodes[2], 1e6, SimTime::millis(1));
    topo.compute_routes();
    return net::Network(sim, topo);
  }

  const QueryRecord& last_record(std::size_t node) const {
    return athena[node]->records().back();
  }
};

TEST(AthenaNode, LocalSensorResolvesWithoutObjectTraffic) {
  Fixture f;
  f.athena[2]->query_init(single_label(0), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(1));
  EXPECT_EQ(f.metrics.queries_resolved, 1u);
  EXPECT_TRUE(f.last_record(2).success);
  EXPECT_EQ(f.metrics.object_bytes, 0u);
  EXPECT_EQ(f.metrics.object_requests, 0u);
  EXPECT_GE(f.metrics.sensor_samples, 1u);
}

TEST(AthenaNode, ResolutionIsImmediateForLocalEvidence) {
  Fixture f;
  f.athena[2]->query_init(single_label(0), SimTime::seconds(30));
  // Resolution happens synchronously at init; no simulation needed.
  EXPECT_TRUE(f.last_record(2).success);
  EXPECT_EQ(f.last_record(2).finished_at, SimTime::zero());
}

TEST(AthenaNode, RemoteFetchResolvesQuery) {
  Fixture f;
  f.athena[0]->query_init(single_label(0), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(5));
  EXPECT_EQ(f.metrics.queries_resolved, 1u);
  EXPECT_TRUE(f.last_record(0).success);
  // One request (2 hops) and the object back (2 hops).
  EXPECT_EQ(f.metrics.object_requests, 1u);
  EXPECT_EQ(f.metrics.object_bytes, 2000u);
  EXPECT_GT(f.last_record(0).finished_at, SimTime::zero());
}

TEST(AthenaNode, BlockedSegmentResolvesToNoViableAction) {
  Fixture f;
  f.athena[0]->query_init(single_label(1), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(5));
  // Decision reached (route known blocked): still a resolved query.
  EXPECT_EQ(f.metrics.queries_resolved, 1u);
  EXPECT_TRUE(f.last_record(0).success);
  EXPECT_FALSE(f.last_record(0).chosen_action.has_value());
}

TEST(AthenaNode, ChosenActionIdentifiesViableRoute) {
  Fixture f;
  decision::DnfExpr e;
  // Route 0 = blocked segment 1; route 1 = viable segment 0.
  e.add_disjunct(decision::Conjunction{{decision::Term{LabelId{1}, false}}});
  e.add_disjunct(decision::Conjunction{{decision::Term{LabelId{0}, false}}});
  f.athena[0]->query_init(std::move(e), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(5));
  ASSERT_TRUE(f.last_record(0).success);
  EXPECT_EQ(f.last_record(0).chosen_action, std::size_t{1});
}

TEST(AthenaNode, OneObjectSettlesMultipleLabels) {
  Fixture f;
  decision::DnfExpr e;
  // Both labels come from sensor 0's single object.
  e.add_disjunct(decision::Conjunction{{decision::Term{LabelId{0}, false},
                                        decision::Term{LabelId{1}, true}}});
  f.athena[0]->query_init(std::move(e), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(5));
  EXPECT_EQ(f.metrics.queries_resolved, 1u);
  EXPECT_EQ(f.metrics.object_requests, 1u) << "one object covers both labels";
}

TEST(AthenaNode, IntermediateCacheServesSecondQuery) {
  // lvf: no label sharing, so the object cache (not a label cache) serves.
  Fixture f(config_for(Scheme::kLvf));
  f.athena[0]->query_init(single_label(0), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(2));
  const auto bytes_after_first = f.metrics.object_bytes;
  // B relayed the object and cached it; B's own query is served from cache.
  f.athena[1]->query_init(single_label(0), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(4));
  EXPECT_EQ(f.metrics.queries_resolved, 2u);
  EXPECT_GE(f.metrics.object_cache_hits, 1u);
  EXPECT_EQ(f.metrics.object_bytes, bytes_after_first)
      << "cache hit at B costs no further object transfer";
}

TEST(AthenaNode, InterestAggregationAvoidsDuplicateUpstream) {
  // Disable prefetch so the only traffic is the two fetches.
  auto cfg = config_for(Scheme::kLvf);
  cfg.prefetch = false;
  Fixture f(cfg);
  // A and B request the same remote object at the same instant.
  f.athena[0]->query_init(single_label(0), SimTime::seconds(30));
  f.athena[1]->query_init(single_label(0), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(5));
  EXPECT_EQ(f.metrics.queries_resolved, 2u);
  EXPECT_GE(f.metrics.interest_aggregations, 1u)
      << "B must fold A's request into its own pending interest";
  // Object crosses C→B once and B→A once: 2000 bytes, not 3000.
  EXPECT_EQ(f.metrics.object_bytes, 2000u);
}

TEST(AthenaNode, StaleObjectCountedAndRefetched) {
  Fixture f;
  // Label 3's sensor has a 10 ms validity; the 2-hop round trip takes ~20 ms,
  // so every arrival is stale.
  f.athena[0]->query_init(single_label(3), SimTime::seconds(2));
  f.sim.run_until(SimTime::seconds(10));
  EXPECT_EQ(f.metrics.queries_resolved, 0u);
  EXPECT_EQ(f.metrics.queries_failed, 1u);
  EXPECT_GE(f.metrics.stale_arrivals, 1u);
  EXPECT_GE(f.metrics.refetches, 1u);
  EXPECT_FALSE(f.last_record(0).success);
}

TEST(AthenaNode, FastLocalQueryIgnoresTransitStaleness) {
  Fixture f;
  // The same volatile sensor resolved at its host: no transit, no staleness.
  f.athena[2]->query_init(single_label(3), SimTime::seconds(2));
  f.sim.run_until(SimTime::seconds(1));
  EXPECT_EQ(f.metrics.queries_resolved, 1u);
}

TEST(AthenaNode, UncoveredLabelFailsAtDeadline) {
  Fixture f;
  f.athena[0]->query_init(single_label(50), SimTime::seconds(3));
  f.sim.run_until(SimTime::seconds(10));
  EXPECT_EQ(f.metrics.queries_failed, 1u);
  EXPECT_EQ(f.metrics.object_requests, 0u);
  EXPECT_EQ(f.last_record(0).finished_at, SimTime::seconds(3));
}

TEST(AthenaNode, ShortCircuitSkipsSecondRoute) {
  Fixture f;
  decision::DnfExpr e;
  // Route 0: label 2 (hosted locally at A, viable). Route 1: label 0 (remote).
  e.add_disjunct(decision::Conjunction{{decision::Term{LabelId{2}, false}}});
  e.add_disjunct(decision::Conjunction{{decision::Term{LabelId{0}, false}}});
  f.athena[0]->query_init(std::move(e), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(5));
  EXPECT_EQ(f.metrics.queries_resolved, 1u);
  EXPECT_EQ(f.metrics.object_requests, 0u)
      << "local evidence short-circuits the whole decision";
  EXPECT_EQ(f.metrics.object_bytes, 0u);
}

TEST(AthenaNode, LabelSharingServesSecondOriginCheaply) {
  Fixture f;  // lvfl
  f.athena[0]->query_init(single_label(0), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(3));
  const auto object_bytes_before = f.metrics.object_bytes;
  ASSERT_EQ(f.metrics.queries_resolved, 1u);
  // A evaluated label 0 and shared it toward C; B's cache now holds it.
  f.athena[1]->query_init(single_label(0), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(6));
  EXPECT_EQ(f.metrics.queries_resolved, 2u);
  EXPECT_EQ(f.metrics.object_bytes, object_bytes_before)
      << "second origin is served by labels (or cache), not a new object";
}

TEST(AthenaNode, NoLabelSharingInLvfScheme) {
  Fixture f(config_for(Scheme::kLvf));
  f.athena[0]->query_init(single_label(0), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(3));
  EXPECT_EQ(f.metrics.label_bytes, 0u);
  EXPECT_EQ(f.metrics.label_cache_hits, 0u);
}

TEST(AthenaNode, PrefetchPushHappensForAnnouncedQueries) {
  Fixture f;
  // Origin B announces; host C's sensor 0 covers announced label 0 and
  // pushes. B's own fetch may win the race — the push must still occur.
  decision::DnfExpr e;
  e.add_disjunct(decision::Conjunction{{decision::Term{LabelId{2}, false}}});
  e.add_disjunct(decision::Conjunction{{decision::Term{LabelId{0}, false}}});
  f.athena[1]->query_init(std::move(e), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(5));
  EXPECT_EQ(f.metrics.queries_resolved, 1u);
  EXPECT_GE(f.metrics.prefetch_pushes, 1u);
  EXPECT_GT(f.metrics.push_bytes, 0u);
}

TEST(AthenaNode, NoPrefetchWhenDisabled) {
  auto cfg = config_for(Scheme::kLvfl);
  cfg.prefetch = false;
  Fixture f(cfg);
  f.athena[0]->query_init(single_label(0), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(5));
  EXPECT_EQ(f.metrics.prefetch_pushes, 0u);
  EXPECT_EQ(f.metrics.push_bytes, 0u);
  EXPECT_EQ(f.metrics.announce_bytes, 0u);
}

TEST(AthenaNode, QueryIdsAreGloballyUnique) {
  Fixture f;
  const QueryId a = f.athena[0]->query_init(single_label(2), SimTime::seconds(30));
  const QueryId b = f.athena[1]->query_init(single_label(2), SimTime::seconds(30));
  const QueryId c = f.athena[0]->query_init(single_label(2), SimTime::seconds(30));
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
}

TEST(AthenaNode, MetricsCountIssuedQueries) {
  Fixture f;
  f.athena[0]->query_init(single_label(2), SimTime::seconds(30));
  f.athena[1]->query_init(single_label(0), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(10));
  EXPECT_EQ(f.metrics.queries_issued, 2u);
  EXPECT_EQ(f.metrics.queries_resolved + f.metrics.queries_failed, 2u);
}

TEST(AthenaNode, NegatedTermOnBlockedSegmentIsViable) {
  Fixture f;
  decision::DnfExpr e;
  // "take the detour if segment 1 is NOT viable" — segment 1 is blocked.
  e.add_disjunct(decision::Conjunction{{decision::Term{LabelId{1}, true}}});
  f.athena[0]->query_init(std::move(e), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(5));
  ASSERT_EQ(f.metrics.queries_resolved, 1u);
  EXPECT_EQ(f.last_record(0).chosen_action, std::size_t{0});
}

TEST(AthenaNode, ActiveQueriesDrainsToZero) {
  Fixture f;
  f.athena[0]->query_init(single_label(0), SimTime::seconds(30));
  f.athena[0]->query_init(single_label(2), SimTime::seconds(30));
  EXPECT_GT(f.athena[0]->active_queries(), 0u);
  f.sim.run_until(SimTime::seconds(10));
  EXPECT_EQ(f.athena[0]->active_queries(), 0u);
}

TEST(AthenaNode, RequestsSentRecorded) {
  Fixture f;
  f.athena[0]->query_init(single_label(0), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(5));
  EXPECT_EQ(f.last_record(0).requests_sent, 1u);
}

TEST(AthenaNode, TrustedAnnotatorSetAcceptsOnlyListed) {
  // Label sharing on, but object caches off so B cannot self-annotate from
  // the relayed copy — the only cheap path is A's shared label.
  auto cfg = config_for(Scheme::kLvfl);
  cfg.object_cache_capacity = 0;
  cfg.prefetch = false;  // keep prefetch pushes from racing the fetch
  Fixture f(cfg);
  // B trusts only annotator 99 (nobody real) — shared labels are rejected
  // and B must fetch the object itself.
  f.athena[1]->set_trusted_annotators({AnnotatorId{99}});
  f.athena[0]->query_init(single_label(0), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(3));
  const auto object_bytes_before = f.metrics.object_bytes;
  f.athena[1]->query_init(single_label(0), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(8));
  EXPECT_EQ(f.metrics.queries_resolved, 2u);
  EXPECT_GT(f.metrics.object_bytes, object_bytes_before)
      << "distrusting the shared label forces an object fetch";
}

TEST(AthenaNode, TrustedAnnotatorSetAcceptsListed) {
  auto cfg = config_for(Scheme::kLvfl);
  cfg.object_cache_capacity = 0;
  cfg.prefetch = false;
  Fixture f(cfg);
  // B explicitly trusts A's annotator id — shared labels are accepted.
  f.athena[1]->set_trusted_annotators({AnnotatorId{0}});
  f.athena[0]->query_init(single_label(0), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(3));
  const auto object_bytes_before = f.metrics.object_bytes;
  f.athena[1]->query_init(single_label(0), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(8));
  EXPECT_EQ(f.metrics.queries_resolved, 2u);
  EXPECT_EQ(f.metrics.object_bytes, object_bytes_before);
}

TEST(AthenaNode, TrustsOwnAnnotationsAlways) {
  Fixture f(config_for(Scheme::kLvf));  // sharing off
  EXPECT_TRUE(f.athena[0]->trusts(AnnotatorId{0}));
  EXPECT_FALSE(f.athena[0]->trusts(AnnotatorId{1}));
}

TEST(AthenaNode, EquivalentObjectSubstitutionServesRequest) {
  // Sensor 0 (at C) covers segments {0,1}. A fourth sensor at B covering
  // segment 0 would be the substitution candidate; here we instead verify
  // via the cache: B holds sensor 0's object, and a request directed at a
  // hypothetical different source covering label 0 can be served by it.
  auto cfg = config_for(Scheme::kLvf);
  cfg.substitute_equivalent_objects = true;
  Fixture f(cfg);
  // Warm B's cache with sensor 0's object.
  f.athena[1]->query_init(single_label(0), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(3));
  ASSERT_EQ(f.metrics.queries_resolved, 1u);
  // A asks for label 1 — designated source is sensor 0 again, so the cache
  // at B serves directly (normal cache hit). Substitution engages when the
  // designated source differs; with a single covering sensor per label in
  // this fixture, assert the flag at least leaves behaviour correct.
  f.athena[0]->query_init(single_label(1), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(8));
  EXPECT_EQ(f.metrics.queries_resolved, 2u);
}

TEST(AthenaNode, InvalidationPurgesAndRefetches) {
  Fixture f;  // lvfl
  // Resolve once: label 0 now cached at A (labels + object along the path).
  f.athena[0]->query_init(single_label(0), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(3));
  ASSERT_EQ(f.metrics.queries_resolved, 1u);
  const auto bytes_before = f.metrics.object_bytes;

  // An invalidation voids label 0 everywhere. A new query must refetch.
  f.athena[2]->broadcast_invalidation({LabelId{0}});
  f.sim.run_until(SimTime::seconds(4));
  f.athena[0]->query_init(single_label(0), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(8));
  EXPECT_EQ(f.metrics.queries_resolved, 2u);
  EXPECT_GT(f.metrics.object_bytes, bytes_before)
      << "the voided caches must not serve; the object travels again";
}

TEST(AthenaNode, InvalidationIgnoredWhenDisabled) {
  auto cfg = config_for(Scheme::kLvfl);
  cfg.honor_invalidations = false;
  Fixture f(cfg);
  f.athena[0]->query_init(single_label(0), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(3));
  const auto bytes_before = f.metrics.object_bytes;
  f.athena[2]->broadcast_invalidation({LabelId{0}});
  f.sim.run_until(SimTime::seconds(4));
  f.athena[0]->query_init(single_label(0), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(8));
  EXPECT_EQ(f.metrics.queries_resolved, 2u);
  // Note: broadcast_invalidation always purges the *broadcasting* node;
  // A and B ignore the notice, so A's caches still answer.
  EXPECT_EQ(f.metrics.object_bytes, bytes_before);
}

TEST(AthenaNode, InvalidationReopensActiveQuery) {
  Fixture f;
  // A two-label query; label 0 resolves fast, label 2 is local to A.
  decision::DnfExpr e;
  e.add_disjunct(decision::Conjunction{{decision::Term{LabelId{0}, false},
                                        decision::Term{LabelId{2}, false}}});
  f.athena[0]->query_init(std::move(e), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(3));
  ASSERT_EQ(f.metrics.queries_resolved, 1u);
  // Re-issue, invalidate mid-flight: the query must still converge by
  // refetching the voided label.
  f.athena[0]->query_init(single_label(0), SimTime::seconds(30));
  f.athena[2]->broadcast_invalidation({LabelId{0}});
  f.sim.run_until(SimTime::seconds(10));
  EXPECT_EQ(f.metrics.queries_resolved, 2u);
}

// Every scheme must handle the same basic flows; parameterize the core
// lifecycle over all five presets.
class AllSchemes : public ::testing::TestWithParam<Scheme> {};

TEST_P(AllSchemes, RemoteQueryResolves) {
  Fixture f(config_for(GetParam()));
  f.athena[0]->query_init(single_label(0), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(20));
  EXPECT_EQ(f.metrics.queries_resolved, 1u) << to_string(GetParam());
}

TEST_P(AllSchemes, LocalQueryCostsNoObjectTraffic) {
  Fixture f(config_for(GetParam()));
  f.athena[2]->query_init(single_label(0), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(5));
  EXPECT_EQ(f.metrics.queries_resolved, 1u);
  EXPECT_EQ(f.metrics.object_bytes, 0u);
}

TEST_P(AllSchemes, UncoveredLabelFailsCleanly) {
  Fixture f(config_for(GetParam()));
  f.athena[0]->query_init(single_label(50), SimTime::seconds(2));
  f.sim.run_until(SimTime::seconds(5));
  EXPECT_EQ(f.metrics.queries_failed, 1u);
}

TEST_P(AllSchemes, TwoRouteDecisionPicksViable) {
  Fixture f(config_for(GetParam()));
  decision::DnfExpr e;
  e.add_disjunct(decision::Conjunction{{decision::Term{LabelId{1}, false}}});
  e.add_disjunct(decision::Conjunction{{decision::Term{LabelId{0}, false}}});
  f.athena[0]->query_init(std::move(e), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(20));
  ASSERT_EQ(f.metrics.queries_resolved, 1u);
  EXPECT_EQ(f.last_record(0).chosen_action, std::size_t{1});
}

TEST_P(AllSchemes, AccountingIsConsistent) {
  Fixture f(config_for(GetParam()));
  f.athena[0]->query_init(single_label(0), SimTime::seconds(30));
  f.athena[1]->query_init(single_label(2), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(20));
  EXPECT_EQ(f.net.stats().bytes, f.metrics.total_bytes());
}

INSTANTIATE_TEST_SUITE_P(Schemes, AllSchemes,
                         ::testing::Values(Scheme::kCmp, Scheme::kSlt,
                                           Scheme::kLcf, Scheme::kLvf,
                                           Scheme::kLvfl),
                         [](const auto& param_info) {
                           return std::string(to_string(param_info.param));
                         });

TEST(AthenaNode, RecoverFromLostReply) {
  auto cfg = config_for(Scheme::kLvf);
  cfg.prefetch = false;
  cfg.request_timeout = SimTime::seconds(2);
  Fixture f(cfg);
  // Drop roughly half of all packets; the timeout watchdog re-issues until
  // a request/reply pair survives. With a generous deadline the query must
  // still resolve.
  f.net.set_loss_rate(0.5, 1234);
  f.athena[0]->query_init(single_label(0), SimTime::seconds(120));
  f.sim.run_until(SimTime::seconds(130));
  EXPECT_EQ(f.metrics.queries_resolved, 1u);
  EXPECT_GE(f.net.stats().dropped, 1u);
  EXPECT_GE(f.metrics.refetches, 1u);
}

TEST(AthenaNode, RecoverWhenBothRequestAndReplyAreLost) {
  auto cfg = config_for(Scheme::kLvf);
  cfg.prefetch = false;
  cfg.request_timeout = SimTime::seconds(2);
  Fixture f(cfg);
  // Deterministic loss: exactly the first packet on A→B (the first request)
  // and the first packet on C→B (the first reply) vanish. The watchdog must
  // re-issue through both losses and the query still resolves.
  const auto request_leg = *f.topo.link_between(f.nodes[0], f.nodes[1]);
  const auto reply_leg = *f.topo.link_between(f.nodes[2], f.nodes[1]);
  int req_seen = 0;
  int rep_seen = 0;
  f.net.set_loss_model([&](LinkId link) {
    if (link == request_leg) return req_seen++ == 0;
    if (link == reply_leg) return rep_seen++ == 0;
    return false;
  });
  f.athena[0]->query_init(single_label(0), SimTime::seconds(60));
  f.sim.run_until(SimTime::seconds(60));
  EXPECT_EQ(f.metrics.queries_resolved, 1u);
  EXPECT_TRUE(f.last_record(0).success);
  EXPECT_EQ(f.net.stats().dropped, 2u);
  EXPECT_GE(f.metrics.retries, 2u) << "one timeout per lost packet";
  EXPECT_GE(f.metrics.refetches, 1u);
}

TEST(AthenaNode, FailoverSwitchesToAlternateSourceWhenHostUnreachable) {
  // Two sources cover segment 0: the cheap one at C (designated first) and a
  // fallback at B. Severing B↔C silences C; after max_source_attempts
  // unanswered requests the query must fail over to B's source and resolve.
  struct TwoSourceFixture {
    world::GridMap map{4, 4};
    world::ViabilityProcess truth;
    world::SensorField field;
    net::Topology topo;
    std::vector<NodeId> nodes;
    des::Simulator sim;
    net::Network net;
    Directory dir;
    AthenaMetrics metrics;
    std::vector<std::unique_ptr<AthenaNode>> athena;

    static std::vector<SensorInfo> sensors() {
      SensorInfo cheap;
      cheap.id = SourceId{0};
      cheap.name = naming::Name::parse("/f/c");
      cheap.covers = {SegmentId{0}};
      cheap.object_bytes = 300;  // 300 B × 2 hops = 600: designated
      cheap.validity = SimTime::seconds(100);
      SensorInfo fallback;
      fallback.id = SourceId{1};
      fallback.name = naming::Name::parse("/f/b");
      fallback.covers = {SegmentId{0}};
      fallback.object_bytes = 800;  // 800 B × 1 hop = 800: runner-up
      fallback.validity = SimTime::seconds(100);
      return {cheap, fallback};
    }

    explicit TwoSourceFixture(const AthenaConfig& cfg)
        : truth(std::vector<world::SegmentDynamics>(
                    map.segment_count(),
                    world::SegmentDynamics{1.0, SimTime::seconds(1e7)}),
                Rng(1)),
          field(map, truth, sensors()),
          topo(),
          nodes(),
          sim(),
          net(make_net()),
          dir(topo, field, {NodeId{2}, NodeId{1}}, {{LabelId{0}, 0.9}}) {
      for (std::size_t i = 0; i < 3; ++i) {
        athena.push_back(std::make_unique<AthenaNode>(NodeId{i}, net, dir,
                                                      field, cfg, metrics));
      }
    }

    net::Network make_net() {
      for (int i = 0; i < 3; ++i) nodes.push_back(topo.add_node());
      topo.add_link(nodes[0], nodes[1], 1e6, SimTime::millis(1));
      topo.add_link(nodes[1], nodes[2], 1e6, SimTime::millis(1));
      topo.compute_routes();
      return net::Network(sim, topo);
    }
  };

  auto cfg = config_for(Scheme::kLvf);
  cfg.prefetch = false;
  cfg.request_timeout = SimTime::seconds(1);
  cfg.retry_backoff = 2.0;
  cfg.max_source_attempts = 2;
  TwoSourceFixture f(cfg);
  f.net.set_link_up(*f.topo.link_between(f.nodes[1], f.nodes[2]), false);
  f.net.set_link_up(*f.topo.link_between(f.nodes[2], f.nodes[1]), false);
  f.athena[0]->query_init(single_label(0), SimTime::seconds(60));
  f.sim.run_until(SimTime::seconds(60));
  EXPECT_EQ(f.metrics.queries_resolved, 1u);
  EXPECT_TRUE(f.athena[0]->records().back().success);
  EXPECT_GE(f.metrics.retries, 2u);
  EXPECT_GE(f.metrics.failovers, 1u)
      << "label 0 must be re-designated to the reachable source";
}

/// Ring 0—1—2—3—0 for the planner-metadata memo: node 0 asks
/// "label 0 AND label 1" under the lvf order, whose AND rule puts the
/// cheaper of two equally likely labels first (cost = bytes × hops).
///   sensor 0 @ node 1 covers label 0, 1000 B: 1 hop → cost 1000
///   sensor 1 @ node 2 covers label 1, 1000 B: 2 hops → cost 2000
///   sensor 2 @ node 3 covers label 0, 3000 B: 1 hop → cost 3000
/// Label 0 is designated sensor 0, so the first fetch goes to sensor 0.
struct RingFixture {
  world::GridMap map{4, 4};
  world::ViabilityProcess truth;
  world::SensorField field;
  net::Topology topo;
  std::vector<NodeId> nodes;
  des::Simulator sim;
  net::Network net;
  Directory dir;
  AthenaMetrics metrics;
  obs::TraceSink sink{obs::TraceSink::Options{256, nullptr, false}};
  std::vector<std::unique_ptr<AthenaNode>> athena;

  static SensorInfo sensor(std::uint64_t id, std::uint64_t label,
                           std::uint64_t bytes) {
    SensorInfo s;
    s.id = SourceId{id};
    s.name = naming::Name::parse("/ring/s" + std::to_string(id));
    s.covers = {SegmentId{label}};
    s.object_bytes = bytes;
    s.validity = SimTime::seconds(100);
    return s;
  }

  explicit RingFixture(const AthenaConfig& cfg)
      : truth(std::vector<world::SegmentDynamics>(
                  map.segment_count(),
                  world::SegmentDynamics{1.0, SimTime::seconds(1e7)}),
              Rng(1)),
        field(map, truth,
              {sensor(0, 0, 1000), sensor(1, 1, 1000), sensor(2, 0, 3000)}),
        topo(),
        nodes(),
        sim(),
        net(make_net()),
        dir(topo, field, {NodeId{1}, NodeId{2}, NodeId{3}},
            {{LabelId{0}, 0.5}, {LabelId{1}, 0.5}}) {
    for (std::size_t i = 0; i < 4; ++i) {
      athena.push_back(std::make_unique<AthenaNode>(NodeId{i}, net, dir, field,
                                                    cfg, metrics));
    }
    athena[0]->set_trace_sink(&sink);
  }

  net::Network make_net() {
    for (int i = 0; i < 4; ++i) nodes.push_back(topo.add_node());
    for (int i = 0; i < 4; ++i) {
      topo.add_link(nodes[i], nodes[(i + 1) % 4], 1e6, SimTime::millis(1));
    }
    topo.compute_routes();
    return net::Network(sim, topo);
  }

  /// Silence the 0—1 link in both directions.
  void cut_link_0_1() {
    net.set_link_up(*topo.link_between(nodes[0], nodes[1]), false);
    net.set_link_up(*topo.link_between(nodes[1], nodes[0]), false);
  }

  void query() {
    decision::DnfExpr e;
    e.add_disjunct(decision::Conjunction{
        {decision::Term{LabelId{0}, false}, decision::Term{LabelId{1}, false}}});
    athena[0]->query_init(std::move(e), SimTime::seconds(120));
  }

  /// Sources node 0 fetched from, in order.
  [[nodiscard]] std::vector<std::uint64_t> fetches() const {
    std::vector<std::uint64_t> out;
    for (const obs::Event& ev : sink.ring_snapshot()) {
      if (ev.kind == obs::EventKind::kFetch) out.push_back(ev.subject);
    }
    return out;
  }
};

TEST(AthenaNode, RerouteChangesTheHopCostTheNextPlanSees) {
  auto cfg = config_for(Scheme::kLvf);
  cfg.prefetch = false;
  RingFixture f(cfg);
  f.query();  // plans with sensor 0 one hop away: fetch sensor 0
  // Outage mid-query, rerouted as the fault injector does: sensor 0 is
  // now 3 hops away (cost 3000), sensor 1 still 2 (cost 2000).
  f.cut_link_0_1();
  std::vector<char> enabled(f.topo.link_count(), 1);
  enabled[f.topo.link_between(f.nodes[0], f.nodes[1])->value()] = 0;
  enabled[f.topo.link_between(f.nodes[1], f.nodes[0])->value()] = 0;
  f.topo.compute_routes(enabled);
  // The request to sensor 0 is lost; its retry re-plans under the new
  // routes and puts label 1 first, then fetches label 0 over the 3-hop
  // route. Metadata memoized under the old routes would retry sensor 0
  // first.
  f.sim.run_until(SimTime::seconds(9));
  EXPECT_EQ(f.fetches(), (std::vector<std::uint64_t>{0, 1, 0}));
}

TEST(AthenaNode, FailoverChangesTheHopCostTheNextPlanSees) {
  auto cfg = config_for(Scheme::kLvf);
  cfg.prefetch = false;
  cfg.max_source_attempts = 2;
  RingFixture f(cfg);
  f.query();
  // No reroute: sensor 0 just stops answering. After two attempts label 0
  // fails over to sensor 2 (cost 3000), so the next plan puts label 1
  // (cost 2000) first. Metadata memoized for sensor 0 would fetch label 0
  // from sensor 2 first.
  f.cut_link_0_1();
  f.sim.run_until(SimTime::seconds(20));
  EXPECT_EQ(f.metrics.failovers, 1u);
  EXPECT_EQ(f.fetches(), (std::vector<std::uint64_t>{0, 0, 1}));
}

/// Fixture variant with a noisy world: three sensors at C all covering
/// segment 0 (viable); reliability 0.75 each.
struct NoisyFixture {
  world::GridMap map{4, 4};
  world::ViabilityProcess truth;
  world::SensorField field;
  net::Topology topo;
  std::vector<NodeId> nodes;
  des::Simulator sim;
  net::Network net;
  Directory dir;
  AthenaMetrics metrics;
  std::vector<std::unique_ptr<AthenaNode>> athena;

  static std::vector<SensorInfo> sensors() {
    std::vector<SensorInfo> out;
    for (std::uint64_t i = 0; i < 3; ++i) {
      SensorInfo s;
      s.id = SourceId{i};
      s.name = naming::Name::parse("/n/cam" + std::to_string(i));
      s.covers = {SegmentId{0}};
      s.object_bytes = 1000;
      s.validity = SimTime::seconds(100);
      s.reliability = 0.75;
      out.push_back(std::move(s));
    }
    return out;
  }

  explicit NoisyFixture(const AthenaConfig& cfg)
      : truth(std::vector<world::SegmentDynamics>(
                  map.segment_count(),
                  world::SegmentDynamics{1.0, SimTime::seconds(1e7)}),
              Rng(1)),
        field(map, truth, sensors()),
        topo(),
        nodes(),
        sim(),
        net(make_net()),
        dir(topo, field, {NodeId{2}, NodeId{2}, NodeId{2}},
            {{LabelId{0}, 0.9}}) {
    for (std::size_t i = 0; i < 2; ++i) {
      athena.push_back(std::make_unique<AthenaNode>(NodeId{i}, net, dir, field,
                                                    cfg, metrics));
    }
    athena.push_back(std::make_unique<AthenaNode>(NodeId{2}, net, dir, field,
                                                  cfg, metrics));
  }

  net::Network make_net() {
    for (int i = 0; i < 3; ++i) nodes.push_back(topo.add_node());
    topo.add_link(nodes[0], nodes[1], 1e6, SimTime::millis(1));
    topo.add_link(nodes[1], nodes[2], 1e6, SimTime::millis(1));
    topo.compute_routes();
    return net::Network(sim, topo);
  }
};

TEST(AthenaNodeNoisy, CorroborationRequestsMultipleSources) {
  auto cfg = config_for(Scheme::kLvfl);
  cfg.corroboration_confidence = 0.9;
  cfg.prefetch = false;
  NoisyFixture f(cfg);
  f.athena[0]->query_init(single_label(0), SimTime::seconds(60));
  f.sim.run_until(SimTime::seconds(60));
  // One 0.75-reliable observation gives confidence 0.75 < 0.9, so at least
  // a second (distinct) source must be consulted.
  EXPECT_GE(f.metrics.object_requests, 2u);
}

TEST(AthenaNodeNoisy, WithoutCorroborationOneObservationDecides) {
  auto cfg = config_for(Scheme::kLvfl);
  cfg.corroboration_confidence = 0.0;
  cfg.prefetch = false;
  NoisyFixture f(cfg);
  f.athena[0]->query_init(single_label(0), SimTime::seconds(60));
  f.sim.run_until(SimTime::seconds(60));
  EXPECT_EQ(f.metrics.object_requests, 1u);
  EXPECT_EQ(f.metrics.queries_resolved, 1u);
}

TEST(AthenaNodeNoisy, CorroborationEventuallyResolves) {
  auto cfg = config_for(Scheme::kLvfl);
  cfg.corroboration_confidence = 0.9;
  cfg.prefetch = false;
  NoisyFixture f(cfg);
  // Three 0.75 sources agreeing give odds 27:1 → 0.964 > 0.9. Even with
  // occasional misreads, repeated windows within the 300 s deadline leave
  // ample room to converge.
  f.athena[0]->query_init(single_label(0), SimTime::seconds(300));
  f.sim.run_until(SimTime::seconds(350));
  EXPECT_EQ(f.metrics.queries_resolved, 1u);
}

TEST(AthenaNodeNoisy, LocalCorroborationResolvesWithoutNetwork) {
  auto cfg = config_for(Scheme::kLvfl);
  cfg.corroboration_confidence = 0.9;
  cfg.prefetch = false;
  NoisyFixture f(cfg);
  // Query at the host itself: all three sensors are sampled locally across
  // validity windows until the belief clears 0.9 — no object traffic ever.
  f.athena[2]->query_init(single_label(0), SimTime::seconds(300));
  f.sim.run_until(SimTime::seconds(350));
  EXPECT_EQ(f.metrics.queries_resolved, 1u);
  EXPECT_EQ(f.metrics.object_bytes, 0u);
  EXPECT_GE(f.metrics.sensor_samples, 2u);
}

// Regression (ISSUE 9): the prefetch push-dedup set used to be wiped
// wholesale at its size bound, forgetting every in-flight (origin, source)
// key at once and re-pushing all of them. The bound now evicts oldest-
// first, so keys younger than the overflow survive.
TEST(AthenaNode, PrefetchDedupOverflowEvictsOldestFirst) {
  auto cfg = config_for(Scheme::kLvfl);
  cfg.prefetch_dedup_capacity = 2;
  cfg.announce_ttl = 2;  // announces from A must cross B to reach host C
  Fixture f(cfg);
  // C hosts sensors 0 (label 0) and 2 (label 3); announces from origins A
  // and B mark distinct (origin, source) keys at C, one per query:
  //   1. A asks label 0 → key (A, s0) marked, push #1.
  f.athena[0]->query_init(single_label(0), SimTime::seconds(120));
  f.sim.run_until(SimTime::seconds(2));
  //   2. B asks label 0 → key (B, s0) marked, push #2.
  f.athena[1]->query_init(single_label(0), SimTime::seconds(120));
  f.sim.run_until(SimTime::seconds(4));
  //   3. A asks label 3 → key (A, s2) overflows the bound of 2. Oldest-
  //      first eviction drops (A, s0) only; (B, s0) survives. Push #3.
  f.athena[0]->query_init(single_label(3), SimTime::seconds(120));
  f.sim.run_until(SimTime::seconds(6));
  //   4. B asks label 0 again (fresh query id): (B, s0) is still in the
  //      dedup set, so no fourth push. The wholesale clear() this replaces
  //      forgot it in step 3 and pushed again here.
  f.athena[1]->query_init(single_label(0), SimTime::seconds(120));
  f.sim.run_until(SimTime::seconds(10));
  EXPECT_EQ(f.metrics.prefetch_pushes, 3u);
}

// Regression (ISSUE 9): the GC dedup-expiry boundary. Announce-dedup
// entries expire with the query deadline under the `expires_at <= now`
// convention: a sweep strictly before the deadline must keep the entry,
// and the first sweep at/after it must collect it — one sweep seeing both
// a dead and a live entry must split them exactly.
TEST(AthenaNode, GcCollectsDedupEntriesOnlyPastDeadline) {
  auto cfg = config_for(Scheme::kLvfl);
  cfg.state_gc_interval = SimTime::seconds(20);
  cfg.announce_ttl = 2;  // flood both announces to every node in the line
  Fixture f(cfg);
  // Two announced queries: Q1's dedup entry dies at t=12, Q2's at t=100.
  f.athena[0]->query_init(single_label(0), SimTime::seconds(12));
  f.athena[0]->query_init(single_label(3), SimTime::seconds(100));
  f.sim.run_until(SimTime::millis(50));
  // Every node saw both announces (origin included).
  for (const auto& node : f.athena) {
    EXPECT_EQ(node->dedup_entries(), 2u);
  }
  // t=15: Q1's deadline passed, but the next sweep is at ~t=20 — the
  // entry is collected by the sweep, not by the deadline itself.
  f.sim.run_until(SimTime::seconds(15));
  for (const auto& node : f.athena) {
    EXPECT_EQ(node->dedup_entries(), 2u);
  }
  // t=25: the sweep ran once with now ≈ 20: Q1 (12 <= 20) collected,
  // Q2 (100 > 20) kept.
  f.sim.run_until(SimTime::seconds(25));
  for (const auto& node : f.athena) {
    EXPECT_EQ(node->dedup_entries(), 1u);
  }
  // Past Q2's deadline the table drains to empty.
  f.sim.run_until(SimTime::seconds(130));
  for (const auto& node : f.athena) {
    EXPECT_EQ(node->dedup_entries(), 0u);
  }
}

}  // namespace
}  // namespace dde::athena
