#include "athena/node.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <any>
#include <memory>
#include <string>
#include <variant>
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

/// Every query each node retired, in retirement order, with the expression
/// it was issued with (filled by the nodes' retire hooks).
struct RetireLog {
  std::vector<std::vector<std::pair<QueryRecord, decision::DnfExpr>>> by_node;

  void attach(const std::vector<std::unique_ptr<AthenaNode>>& nodes) {
    by_node.resize(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      nodes[i]->set_retire_hook(
          [this, i](const QueryRecord& rec, const decision::DnfExpr& expr) {
            by_node[i].emplace_back(rec, expr);
          });
    }
  }

  /// The record of the query `node` retired last.
  const QueryRecord& last(std::size_t node) const {
    static const QueryRecord kNone{};
    EXPECT_FALSE(by_node[node].empty()) << "node " << node << " retired none";
    return by_node[node].empty() ? kNone : by_node[node].back().first;
  }
};

/// The network a Fixture builds.
enum class Shape {
  kLine,     ///< A(0) — B(1) — C(2)
  kDiamond,  ///< A(0) — {B(1), C(2)} — D(3): two disjoint A–D paths
};

/// Line network A(0) — B(1) — C(2), or a diamond whose far node D(3) takes
/// C's sensors:
///   sensor 0 @ C (D) covers segments {0 (viable), 1 (blocked)}, 1000 B,
///     100 s.
///   sensor 1 @ A covers segment {2 (viable)}, 800 B, 100 s.
///   sensor 2 @ C (D) covers segment {3 (viable)}, 1000 B, 10 ms
///     (stale-on-arrival).
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
  RetireLog retired;

  static std::vector<world::SegmentDynamics> dynamics(std::size_t n) {
    std::vector<world::SegmentDynamics> d(
        n, world::SegmentDynamics{1.0, SimTime::seconds(1e7)});
    d[1].p_viable = 0.0;  // segment 1 is blocked
    return d;
  }

  static std::vector<SensorInfo> sensors() {
    SensorInfo s0;
    s0.id = SourceId{0};
    s0.covers = {SegmentId{0}, SegmentId{1}};
    s0.object_bytes = 1000;
    s0.validity = SimTime::seconds(100);
    SensorInfo s1;
    s1.id = SourceId{1};
    s1.covers = {SegmentId{2}};
    s1.object_bytes = 800;
    s1.validity = SimTime::seconds(100);
    SensorInfo s2;
    s2.id = SourceId{2};
    s2.covers = {SegmentId{3}};
    s2.object_bytes = 1000;
    s2.validity = SimTime::millis(10);
    s2.rate = world::ChangeRate::kFast;
    return {s0, s1, s2};
  }

  explicit Fixture(const AthenaConfig& cfg = config_for(Scheme::kLvfl),
                   Shape shape = Shape::kLine)
      : truth(dynamics(map.segment_count()), Rng(1)),
        field(map, truth, sensors()),
        topo(),
        nodes(),
        sim(),
        net(make_net(shape)),
        dir(topo, field, {nodes.back(), NodeId{0}, nodes.back()},
            {0.9, 0.1, 0.9, 0.9}) {
    for (const NodeId n : nodes) {
      athena.push_back(
          std::make_unique<AthenaNode>(n, net, dir, field, cfg, metrics));
    }
    retired.attach(athena);
  }

  net::Network make_net(Shape shape) {
    const auto link = [this](int a, int b) {
      topo.add_link(nodes[a], nodes[b], 1e6, SimTime::millis(1));
    };
    if (shape == Shape::kLine) {
      for (int i = 0; i < 3; ++i) nodes.push_back(topo.add_node());
      link(0, 1);
      link(1, 2);
    } else {
      for (int i = 0; i < 4; ++i) nodes.push_back(topo.add_node());
      link(0, 1);
      link(0, 2);
      link(1, 3);
      link(2, 3);
    }
    topo.compute_routes();
    return net::Network(sim, topo);
  }

  const QueryRecord& last_record(std::size_t node) const {
    return retired.last(node);
  }
};

TEST(AthenaNode, LocalSensorResolvesWithoutObjectTraffic) {
  Fixture f;
  f.athena[2]->query_init(single_label(0), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(1));
  EXPECT_EQ(f.metrics.queries_resolved, 1u);
  EXPECT_TRUE(f.last_record(2).success());
  EXPECT_EQ(f.metrics.object_bytes, 0u);
  EXPECT_EQ(f.metrics.object_requests, 0u);
  EXPECT_GE(f.metrics.sensor_samples, 1u);
}

TEST(AthenaNode, ResolutionIsImmediateForLocalEvidence) {
  Fixture f;
  f.athena[2]->query_init(single_label(0), SimTime::seconds(30));
  // Resolution happens synchronously at init; no simulation needed.
  EXPECT_TRUE(f.last_record(2).success());
  EXPECT_EQ(f.last_record(2).finished_at, SimTime::zero());
}

TEST(AthenaNode, RemoteFetchResolvesQuery) {
  Fixture f;
  f.athena[0]->query_init(single_label(0), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(5));
  EXPECT_EQ(f.metrics.queries_resolved, 1u);
  EXPECT_TRUE(f.last_record(0).success());
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
  EXPECT_TRUE(f.last_record(0).success());
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
  ASSERT_TRUE(f.last_record(0).success());
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
  EXPECT_FALSE(f.last_record(0).success());
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
  EXPECT_TRUE(f.last_record(0).success());
  EXPECT_EQ(f.net.stats().dropped, 2u);
  EXPECT_GE(f.metrics.retries, 2u) << "one timeout per lost packet";
  EXPECT_GE(f.metrics.refetches, 1u);
}

/// Line network A(0) — B(1) — C(2) with two sources of segment 0: a cheap
/// one at C (300 B × 2 hops = 600 from A: designated) and a fallback at B
/// (800 B × 1 hop = 800 from A: runner-up).
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
  RetireLog retired;

  static std::vector<SensorInfo> sensors() {
    SensorInfo cheap;
    cheap.id = SourceId{0};
    cheap.covers = {SegmentId{0}};
    cheap.object_bytes = 300;  // 300 B × 2 hops = 600: designated
    cheap.validity = SimTime::seconds(100);
    SensorInfo fallback;
    fallback.id = SourceId{1};
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
        dir(topo, field, {NodeId{2}, NodeId{1}}, {0.9}) {
    for (std::size_t i = 0; i < 3; ++i) {
      athena.push_back(std::make_unique<AthenaNode>(NodeId{i}, net, dir,
                                                    field, cfg, metrics));
    }
    retired.attach(athena);
  }

  const QueryRecord& last_record(std::size_t node) const {
    return retired.last(node);
  }

  net::Network make_net() {
    for (int i = 0; i < 3; ++i) nodes.push_back(topo.add_node());
    topo.add_link(nodes[0], nodes[1], 1e6, SimTime::millis(1));
    topo.add_link(nodes[1], nodes[2], 1e6, SimTime::millis(1));
    topo.compute_routes();
    return net::Network(sim, topo);
  }
};

// A relay caching another covering source's object still forwards a
// request to the source it names: only that source's object reaches the
// origin's interest, so the query decides on the first reply.
TEST(AthenaNode, RelayForwardsRequestPastAnotherSourcesObject) {
  auto cfg = config_for(Scheme::kLvf);
  cfg.prefetch = false;
  TwoSourceFixture f(cfg);
  // B decides on its own fallback sensor, which leaves that object cached.
  f.athena[1]->query_init(single_label(0), SimTime::seconds(60));
  ASSERT_EQ(f.metrics.queries_resolved, 1u);
  ASSERT_NE(f.athena[1]->cached_object(SourceId{1}), nullptr);
  // A's request for the cheap source passes B on its way to C.
  f.athena[0]->query_init(single_label(0), SimTime::seconds(60));
  f.sim.run_until(SimTime::seconds(60));
  EXPECT_TRUE(f.last_record(0).success());
  EXPECT_LT(f.last_record(0).finished_at, SimTime::seconds(1));
  EXPECT_EQ(f.metrics.retries, 0u);
  EXPECT_EQ(f.metrics.object_cache_hits, 0u);
  EXPECT_NE(f.athena[0]->cached_object(SourceId{0}), nullptr);
}

TEST(AthenaNode, FailoverSwitchesToAlternateSourceWhenHostUnreachable) {
  // Severing B↔C silences C; after max_source_attempts unanswered requests
  // to the cheap source the query must fail over to B's source and resolve.
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
  EXPECT_TRUE(f.last_record(0).success());
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
            {0.5, 0.5}) {
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

/// Fixture variant with a noisy world on the line A(0) — B(1) — C(2):
/// three sensors (by default sensors(), all at C) covering segment 0
/// (viable); reliability 0.75 each.
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
  RetireLog retired;

  static std::vector<SensorInfo> sensors() {
    std::vector<SensorInfo> out;
    for (std::uint64_t i = 0; i < 3; ++i) {
      SensorInfo s;
      s.id = SourceId{i};
      s.covers = {SegmentId{0}};
      s.object_bytes = 1000;
      s.validity = SimTime::seconds(100);
      s.reliability = 0.75;
      out.push_back(std::move(s));
    }
    return out;
  }

  explicit NoisyFixture(const AthenaConfig& cfg,
                        std::vector<NodeId> hosts = {NodeId{2}, NodeId{2},
                                                     NodeId{2}},
                        const std::vector<SensorInfo>& sensor_list = sensors())
      : truth(std::vector<world::SegmentDynamics>(
                  map.segment_count(),
                  world::SegmentDynamics{1.0, SimTime::seconds(1e7)}),
              Rng(1)),
        field(map, truth, sensor_list),
        topo(),
        nodes(),
        sim(),
        net(make_net()),
        dir(topo, field, std::move(hosts), {0.9}) {
    for (std::size_t i = 0; i < 2; ++i) {
      athena.push_back(std::make_unique<AthenaNode>(NodeId{i}, net, dir, field,
                                                    cfg, metrics));
    }
    athena.push_back(std::make_unique<AthenaNode>(NodeId{2}, net, dir, field,
                                                  cfg, metrics));
    retired.attach(athena);
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

// Corroboration asks the least recently asked covering source; retry
// exhaustion marks a source given up on, and rotation must skip it. B
// asks. Sensor 0 sits at A, cut off for good, and its captures last 1 s,
// so rotation could come back to it every second. Sensors 1 and 2 sit at
// C, cut off for the first 50 s, and their captures last 100 s. The first
// round of requests all time out; sensor 0's second attempt spends its
// two. Until the live sensors are due again at 101 s, sensor 0 is the only
// source rotation could pick, and it must not.
TEST(AthenaNodeNoisy, CorroborationSkipsAnExhaustedSource) {
  auto cfg = config_for(Scheme::kLvfl);
  cfg.corroboration_confidence = 0.85;  // two agreeing readings decide
  cfg.prefetch = false;
  cfg.request_timeout = SimTime::seconds(1);
  cfg.max_source_attempts = 2;
  auto sensors = NoisyFixture::sensors();
  sensors[0].validity = SimTime::seconds(1);
  NoisyFixture f(cfg, {NodeId{0}, NodeId{2}, NodeId{2}}, sensors);
  obs::TraceSink sink{obs::TraceSink::Options{4096, nullptr, false}};
  f.athena[1]->set_trace_sink(&sink);
  const auto set_link = [&f](int a, int b, bool up) {
    f.net.set_link_up(*f.topo.link_between(f.nodes[a], f.nodes[b]), up);
    f.net.set_link_up(*f.topo.link_between(f.nodes[b], f.nodes[a]), up);
  };
  set_link(0, 1, false);
  set_link(1, 2, false);
  f.athena[1]->query_init(single_label(0), SimTime::seconds(3000));
  f.sim.run_until(SimTime::seconds(50));
  set_link(1, 2, true);
  f.sim.run_until(SimTime::seconds(3100));

  ASSERT_EQ(f.metrics.queries_resolved, 1u);
  const QueryRecord& rec = f.retired.last(1);
  EXPECT_TRUE(rec.success());
  EXPECT_GT(rec.finished_at, SimTime::seconds(100));
  std::vector<std::uint64_t> fetches(3, 0);
  for (const obs::Event& ev : sink.ring_snapshot()) {
    if (ev.kind == obs::EventKind::kFetch) ++fetches.at(ev.subject);
  }
  EXPECT_EQ(fetches[0], cfg.max_source_attempts);
  EXPECT_GE(fetches[1], 2u);
  EXPECT_GE(fetches[2], 2u);
  EXPECT_EQ(rec.requests_sent, fetches[0] + fetches[1] + fetches[2]);
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

// A label's provenance lists the objects it was computed from: the one
// annotated object, or every observation a corroborated verdict counted, in
// ascending order.
TEST(AthenaNode, LabelEvidenceListsItsObjects) {
  {
    SCOPED_TRACE("annotation");
    Fixture f;
    f.athena[2]->query_init(single_label(0), SimTime::seconds(30));
    const world::ObjectRef obj = f.athena[2]->cached_object(SourceId{0});
    ASSERT_NE(obj, nullptr);
    for (const std::uint64_t l : {0, 1}) {
      const decision::LabelValue* v = f.athena[2]->cached_label(LabelId{l});
      ASSERT_NE(v, nullptr);
      ASSERT_EQ(v->evidence.size(), 1u);
      EXPECT_EQ(v->evidence[0], obj->id);
    }
  }
  {
    SCOPED_TRACE("corroboration");
    auto cfg = config_for(Scheme::kLvfl);
    cfg.corroboration_confidence = 0.9;
    cfg.prefetch = false;
    NoisyFixture f(cfg);
    // Every sensor is local to C; step until the belief clears 0.9, then
    // read the cached verdict while it is fresh.
    f.athena[2]->query_init(single_label(0), SimTime::seconds(300));
    for (int t = 1; t <= 300 && f.metrics.queries_resolved == 0; ++t) {
      f.sim.run_until(SimTime::seconds(t));
    }
    ASSERT_EQ(f.metrics.queries_resolved, 1u);
    const decision::LabelValue* v = f.athena[2]->cached_label(LabelId{0});
    ASSERT_NE(v, nullptr);
    // One 0.75-reliable reading cannot reach 0.9: the verdict counted at
    // least two observations, so the inline evidence slot spilled.
    ASSERT_GE(v->evidence.size(), 2u);
    std::vector<ObjectId> current;
    for (std::uint64_t s = 0; s < 3; ++s) {
      if (const auto obj = f.athena[2]->cached_object(SourceId{s})) {
        current.push_back(obj->id);
      }
    }
    for (std::size_t i = 0; i < v->evidence.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(v->evidence[i - 1], v->evidence[i]);
      }
      EXPECT_NE(std::find(current.begin(), current.end(), v->evidence[i]),
                current.end())
          << "evidence " << v->evidence[i].value()
          << " is not a capture C holds";
    }
  }
}

// The prefetch push-dedup set holds each (origin, source) key for good:
// announces travel one hop, so its keys are bounded by neighbours x hosted
// sources, and a re-ask from the same origin pushes nothing new.
TEST(AthenaNode, PrefetchPushesOncePerOriginAndSource) {
  Fixture f(config_for(Scheme::kLvfl), Shape::kDiamond);
  // D hosts sensor 0 (label 0); announces from its neighbours B and C mark
  // distinct (origin, source) keys at D:
  //   1. B asks label 0 → key (B, s0) marked, push #1.
  f.athena[1]->query_init(single_label(0), SimTime::seconds(120));
  f.sim.run_until(SimTime::seconds(2));
  //   2. C asks label 0 → key (C, s0) marked, push #2.
  f.athena[2]->query_init(single_label(0), SimTime::seconds(120));
  f.sim.run_until(SimTime::seconds(4));
  //   3. C asks label 0 again (fresh query id): (C, s0) is already in the
  //      set, so no third push.
  f.athena[2]->query_init(single_label(0), SimTime::seconds(120));
  f.sim.run_until(SimTime::seconds(10));
  EXPECT_EQ(f.metrics.prefetch_pushes, 2u);
}

// A non-ghost crash splits the node's state: the forwarder's tables and
// the flood-dedup sets are lost under both policies, while the store (the
// object and label caches and the ingest dedup) survives a warm restart
// and not a cold one.
TEST(AthenaNode, WarmCrashKeepsStoreColdCrashWipesIt) {
  for (const auto policy :
       {fault::RestartPolicy::kWarm, fault::RestartPolicy::kCold}) {
    Fixture f;
    AthenaNode& a = *f.athena[0];
    // Sensor 0's object travels from C: A caches it and labels 0 and 1.
    a.query_init(single_label(0), SimTime::seconds(10));
    f.sim.run_until(SimTime::seconds(1));
    ASSERT_TRUE(f.last_record(0).success());
    // A second remote fetch is in flight at the crash: A holds its local
    // interest and its aggregation marker, and its one dedup entry is the
    // ingest entry of sensor 0's object.
    a.query_init(single_label(3), SimTime::seconds(10));
    ASSERT_GT(a.interest_entries(), 0u);
    ASSERT_GT(a.forwarded_entries(), 0u);
    ASSERT_EQ(a.dedup_entries(), 1u);

    a.on_crash(policy);
    const bool warm = policy == fault::RestartPolicy::kWarm;
    EXPECT_EQ(a.cached_object(SourceId{0}) != nullptr, warm);
    EXPECT_EQ(a.cached_label(LabelId{0}) != nullptr, warm);
    EXPECT_EQ(a.interest_entries(), 0u);
    EXPECT_EQ(a.forwarded_entries(), 0u);
    // Only the ingest entry of sensor 0's object can survive.
    EXPECT_EQ(a.dedup_entries(), warm ? 1u : 0u);
  }
}

// The retire hook sees every way a query ends exactly once, with the
// expression the query was issued with: rejected by admission control and
// shed as infeasible (both at issue), decided, expired, and crashed.
TEST(AthenaNode, RetireHookFiresOnceWithTheIssuedExpression) {
  auto cfg = config_for(Scheme::kLvfl);
  cfg.shed_infeasible = true;
  cfg.admission_max_active = 2;
  Fixture f(cfg);
  AthenaNode& a = *f.athena[0];
  const QueryId decided = a.query_init(single_label(0), SimTime::seconds(30));
  const QueryId expired = a.query_init(single_label(50), SimTime::seconds(3));
  const QueryId rejected = a.query_init(single_label(2), SimTime::seconds(30));
  const QueryId shed =
      a.query_init(single_label(1), SimTime::millis(1), /*priority=*/1);
  f.sim.run_until(SimTime::seconds(5));
  // Label 3's objects arrive stale, so this query is still fetching when
  // its node crashes.
  const QueryId crashed = a.query_init(single_label(3), SimTime::seconds(30));
  f.sim.run_until(SimTime::seconds(6));
  a.on_crash(fault::RestartPolicy::kCold);
  f.sim.run_until(SimTime::seconds(60));

  struct Want {
    QueryId id;
    Outcome outcome;
    std::uint64_t label;
  };
  const Want want[] = {{rejected, Outcome::kShed, 2},
                       {shed, Outcome::kShed, 1},
                       {decided, Outcome::kDecided, 0},
                       {expired, Outcome::kExpired, 50},
                       {crashed, Outcome::kCrashed, 3}};
  const auto& log = f.retired.by_node[0];
  ASSERT_EQ(log.size(), std::size(want));
  for (std::size_t i = 0; i < log.size(); ++i) {
    const auto& [rec, expr] = log[i];
    EXPECT_EQ(rec.id, want[i].id) << i;
    EXPECT_EQ(rec.outcome, want[i].outcome) << i;
    EXPECT_EQ(expr.disjuncts(), single_label(want[i].label).disjuncts()) << i;
  }
  EXPECT_EQ(log[1].first.priority, 1);
  EXPECT_EQ(log[3].first.finished_at, SimTime::seconds(3));
  EXPECT_GT(log[4].first.requests_sent, 0u);
  EXPECT_TRUE(f.retired.by_node[1].empty());
  EXPECT_TRUE(f.retired.by_node[2].empty());
}

// The GC dedup-expiry boundary, on invalidation-flood entries (expiry =
// first sight + kDedupTtl, 3600 s): under the `expires_at <= now`
// convention a sweep strictly before an entry's expiry keeps it, the first
// sweep at or after it collects it, and one sweep that sees a dead and a
// live entry splits them exactly. A's sweeps run every 60 s from its first
// notice at t=0, so one lands exactly on that notice's expiry.
TEST(AthenaNode, GcCollectsDedupEntriesOnlyPastExpiry) {
  Fixture f;
  AthenaNode& a = *f.athena[0];
  // Two notices from A: the first expires at t=3600, the second at 3700.
  a.broadcast_invalidation({LabelId{0}});
  f.sim.run_until(SimTime::seconds(100));
  a.broadcast_invalidation({LabelId{2}});
  f.sim.run_until(SimTime::seconds(101));
  for (const auto& node : f.athena) EXPECT_EQ(node->dedup_entries(), 2u);
  // t=3599: every sweep so far ran before either expiry.
  f.sim.run_until(SimTime::seconds(3599));
  EXPECT_EQ(a.dedup_entries(), 2u);
  // t=3601: the sweep at now = 3600 collected the first notice (3600 <=
  // 3600) and kept the second (3700 > 3600).
  f.sim.run_until(SimTime::seconds(3601));
  EXPECT_EQ(a.dedup_entries(), 1u);
  // Past both expiries every node's table drains to empty.
  f.sim.run_until(SimTime::seconds(3800));
  for (const auto& node : f.athena) EXPECT_EQ(node->dedup_entries(), 0u);
}

// Canonical walk order: one reply that unblocks several queries at a node
// advances them in issue order, whatever the standard library's hash
// layout would have produced.
TEST(AthenaNode, OneReplyAdvancesWaitingQueriesInIssueOrder) {
  auto cfg = config_for(Scheme::kLvf);
  cfg.prefetch = false;
  Fixture f(cfg);
  obs::TraceSink sink{obs::TraceSink::Options{256, nullptr, false}};
  f.athena[1]->set_trace_sink(&sink);
  // B asks "label 0 AND label 2" five times. Sensor 0 (label 0, at C) and
  // sensor 1 (label 2, at A) are one hop away each, so every query fetches
  // one label, re-plans when that reply lands, fetches the other, and
  // decides when the second reply lands.
  std::vector<std::uint64_t> issued;
  for (int i = 0; i < 5; ++i) {
    decision::DnfExpr e;
    e.add_disjunct(decision::Conjunction{{decision::Term{LabelId{0}, false},
                                          decision::Term{LabelId{2}, false}}});
    issued.push_back(
        f.athena[1]->query_init(std::move(e), SimTime::seconds(30)).value());
  }
  f.sim.run_until(SimTime::seconds(10));
  ASSERT_EQ(f.metrics.queries_resolved, 5u);

  std::vector<std::uint64_t> plans;
  std::vector<std::uint64_t> decides;
  for (const obs::Event& ev : sink.ring_snapshot()) {
    if (ev.kind == obs::EventKind::kPlan) plans.push_back(ev.query);
    if (ev.kind == obs::EventKind::kDecide) decides.push_back(ev.query);
  }
  // One plan per query at issue, then one per query when the first reply
  // unblocks all five.
  std::vector<std::uint64_t> want_plans = issued;
  want_plans.insert(want_plans.end(), issued.begin(), issued.end());
  EXPECT_EQ(plans, want_plans);
  EXPECT_EQ(decides, issued);
}

// The query table is bounded by the live queries: a finished query's entry
// is erased at the node's next entry point, not kept as a tombstone.
TEST(AthenaNode, QueryTableHoldsOnlyUnfinishedQueries) {
  Fixture f;
  // 500 short queries at C: label 0 resolves on the spot from C's own
  // sensor, label 2 needs a 2-hop fetch (or C's label cache once filled).
  for (int i = 0; i < 500; ++i) {
    f.athena[2]->query_init(single_label(i % 2 == 0 ? 0 : 2),
                            SimTime::seconds(30));
    f.sim.run_until(f.net.now() + SimTime::millis(200));
  }
  f.sim.run_until(f.net.now() + SimTime::seconds(60));
  EXPECT_EQ(f.metrics.queries_resolved, 500u);
  EXPECT_EQ(f.athena[2]->active_queries(), 0u);
  // Issuing drains the finished entries first; only the new query (an
  // uncovered label, so it waits for its deadline) remains.
  f.athena[2]->query_init(single_label(5), SimTime::seconds(30));
  EXPECT_EQ(f.athena[2]->active_queries(), 1u);
  EXPECT_EQ(f.athena[2]->query_entries(), 1u);
}

// A LabelShare serves the label-accepting interests waiting at a relay in
// ascending source order, whatever order the interests arrived in.
TEST(AthenaNode, LabelShareServesInterestsInAscendingSourceOrder) {
  for (const bool descending : {true, false}) {
    SCOPED_TRACE(descending ? "interests inserted 2, 0" : "interests inserted 0, 2");
    auto cfg = config_for(Scheme::kLvfl);
    cfg.prefetch = false;
    Fixture f(cfg);
    obs::TraceSink sink{obs::TraceSink::Options{256, nullptr, false}};
    f.athena[0]->set_trace_sink(&sink);
    // A asks for label 3 (sensor 2 at C) and label 0 (sensor 0 at C). With
    // B—C down, both requests stop at B as label-accepting interests.
    f.net.set_link_up(*f.topo.link_between(f.nodes[1], f.nodes[2]), false);
    f.net.set_link_up(*f.topo.link_between(f.nodes[2], f.nodes[1]), false);
    const std::vector<std::uint64_t> labels =
        descending ? std::vector<std::uint64_t>{3, 0}
                   : std::vector<std::uint64_t>{0, 3};
    std::vector<std::uint64_t> qid_of_label(4);
    for (const std::uint64_t l : labels) {
      qid_of_label[l] =
          f.athena[0]->query_init(single_label(l), SimTime::seconds(60)).value();
    }
    f.sim.run_until(SimTime::millis(100));
    ASSERT_EQ(f.athena[1]->interest_entries(), 2u);

    // A LabelShare covering both labels reaches B.
    std::vector<decision::LabelValue> values;
    for (const std::uint64_t l : {0, 3}) {
      decision::LabelValue v;
      v.label = LabelId{l};
      v.value = Tristate::kTrue;
      v.evaluated_at = f.net.now();
      v.validity = SimTime::seconds(100);
      v.annotator = AnnotatorId{2};
      values.push_back(std::move(v));
    }
    net::Packet pkt;
    pkt.src = f.nodes[0];
    pkt.dst = f.nodes[1];
    pkt.bytes = 200;
    pkt.payload = Message{LabelShare{std::move(values), f.nodes[1]}};
    ASSERT_TRUE(f.net.send(f.nodes[0], f.nodes[1], std::move(pkt)));
    f.sim.run_until(SimTime::seconds(1));

    // B answers sensor 0's interest first, then sensor 2's; A decides each
    // query as its LabelReply lands.
    std::vector<std::uint64_t> decides;
    for (const obs::Event& ev : sink.ring_snapshot()) {
      if (ev.kind == obs::EventKind::kDecide) decides.push_back(ev.query);
    }
    EXPECT_EQ(decides,
              (std::vector<std::uint64_t>{qid_of_label[0], qid_of_label[3]}));
  }
}

/// Deliver `msg` to node `to` over its link from `from`, as if `from` had
/// sent it.
void inject(Fixture& f, std::size_t from, std::size_t to, Message msg) {
  net::Packet pkt;
  pkt.src = f.nodes[from];
  pkt.dst = f.nodes[to];
  pkt.bytes = 200;
  pkt.payload = std::move(msg);
  ASSERT_TRUE(f.net.send(f.nodes[from], f.nodes[to], std::move(pkt)));
}

/// Deliver `msg` to B (node 1) over the A—B link, as if A had sent it.
void inject_at_b(Fixture& f, Message msg) { inject(f, 0, 1, std::move(msg)); }

/// A fresh, true value for `label`, signed by C.
decision::LabelValue true_value(std::uint64_t label, SimTime at) {
  decision::LabelValue v;
  v.label = LabelId{label};
  v.value = Tristate::kTrue;
  v.evaluated_at = at;
  v.validity = SimTime::seconds(100);
  v.annotator = AnnotatorId{2};
  return v;
}

/// A asks for labels 0 and 1 (both from sensor 0 at C). With B—C down, the
/// request stops at B as one label-accepting interest on {0, 1}.
QueryId strand_two_label_interest_at_b(Fixture& f) {
  f.net.set_link_up(*f.topo.link_between(f.nodes[1], f.nodes[2]), false);
  f.net.set_link_up(*f.topo.link_between(f.nodes[2], f.nodes[1]), false);
  decision::DnfExpr e;
  e.add_disjunct(decision::Conjunction{{decision::Term{LabelId{0}, false},
                                        decision::Term{LabelId{1}, false}}});
  const QueryId qid = f.athena[0]->query_init(e, SimTime::seconds(60));
  f.sim.run_until(SimTime::millis(100));
  EXPECT_EQ(f.athena[1]->interest_entries(), 1u);
  return qid;
}

// A LabelReply only passing through B can complete an interest waiting
// there; the next LabelShare serves it even when the share itself brings
// nothing fresher.
TEST(AthenaNode, LabelShareServesInterestCompletedByPassingLabelReply) {
  auto cfg = config_for(Scheme::kLvfl);
  cfg.prefetch = false;
  Fixture f(cfg);
  strand_two_label_interest_at_b(f);
  const SimTime at = f.net.now();

  // Label 0 arrives in a share: the interest still lacks label 1.
  inject_at_b(f, LabelShare{{true_value(0, at)}, f.nodes[1]});
  f.sim.run_until(SimTime::millis(200));
  EXPECT_EQ(f.metrics.label_cache_hits, 0u);

  // Label 1 passes through B in a reply bound for C (dropped at the down
  // link); B caches it on the way.
  inject_at_b(f, LabelReply{{true_value(1, at)}, f.nodes[2], SourceId{0}});
  f.sim.run_until(SimTime::millis(300));
  EXPECT_EQ(f.metrics.label_cache_hits, 0u);

  // A share repeating label 0 brings nothing fresher, yet B now answers
  // the completed interest and A decides.
  inject_at_b(f, LabelShare{{true_value(0, at)}, f.nodes[1]});
  f.sim.run_until(SimTime::seconds(1));
  EXPECT_EQ(f.metrics.label_cache_hits, 1u);
  EXPECT_EQ(f.athena[1]->interest_entries(), 0u);
  EXPECT_TRUE(f.last_record(0).success());
}

// A share whose fresher labels no waiting interest needs answers nothing.
TEST(AthenaNode, LabelShareOfUnneededLabelsSendsNoReply) {
  auto cfg = config_for(Scheme::kLvfl);
  cfg.prefetch = false;
  Fixture f(cfg);
  strand_two_label_interest_at_b(f);
  const std::uint64_t label_bytes = f.metrics.label_bytes;

  inject_at_b(f, LabelShare{{true_value(2, f.net.now()),
                             true_value(3, f.net.now())},
                            f.nodes[1]});
  f.sim.run_until(SimTime::seconds(1));
  EXPECT_EQ(f.metrics.label_cache_hits, 0u);
  EXPECT_EQ(f.metrics.label_bytes, label_bytes);  // no LabelReply sent
  EXPECT_EQ(f.athena[1]->interest_entries(), 1u);
  EXPECT_EQ(f.athena[0]->active_queries(), 1u);
}

// A sequential query waiting on its own request decides as soon as another
// route settles its label: here a LabelShare passing through its origin B,
// while B's request sits behind the down B—C link and never returns.
TEST(AthenaNode, LabelSharePassingOriginResolvesQueryWithRequestOutstanding) {
  auto cfg = config_for(Scheme::kLvfl);
  cfg.prefetch = false;
  ASSERT_TRUE(cfg.sequential());
  Fixture f(cfg);
  f.net.set_link_up(*f.topo.link_between(f.nodes[1], f.nodes[2]), false);
  f.net.set_link_up(*f.topo.link_between(f.nodes[2], f.nodes[1]), false);
  f.athena[1]->query_init(single_label(0), SimTime::seconds(60));
  f.sim.run_until(SimTime::millis(100));
  ASSERT_EQ(f.athena[1]->active_queries(), 1u);
  ASSERT_TRUE(f.retired.by_node[1].empty());
  ASSERT_EQ(f.metrics.object_requests, 1u);  // B's one request, in flight

  // The share is bound for C; B caches it on the way and applies it.
  const SimTime at = f.net.now();
  inject_at_b(f, LabelShare{{true_value(0, at)}, f.nodes[2]});
  f.sim.run_until(SimTime::millis(200));
  EXPECT_EQ(f.athena[1]->active_queries(), 0u);
  EXPECT_TRUE(f.last_record(1).success());
  EXPECT_LT(f.last_record(1).finished_at, SimTime::millis(200));
  EXPECT_EQ(f.last_record(1).requests_sent, 1u);
}

/// Replace `node`'s packet handler with one that keeps every Message it is
/// sent (the node's AthenaNode stops receiving).
void capture_at(Fixture& f, std::size_t node, std::vector<Message>& into) {
  f.net.set_handler(f.nodes[node], [&into](NodeId, const net::Packet& pkt) {
    into.push_back(std::any_cast<const Message&>(pkt.payload));
  });
}

// A relay caches and forwards the very object the host sampled: one shared
// capture, however many hops and caches hold it. Billing still weighs the
// object's bytes once per hop.
TEST(AthenaNode, RelayForwardsAndCachesTheHostsObject) {
  auto cfg = config_for(Scheme::kLvfl);
  cfg.prefetch = false;
  Fixture f(cfg);
  std::vector<Message> at_a;
  f.athena[0]->query_init(single_label(0), SimTime::seconds(30));
  capture_at(f, 0, at_a);
  f.sim.run_until(SimTime::seconds(5));

  ASSERT_EQ(at_a.size(), 1u);
  const auto* reply = std::get_if<ObjectReply>(&at_a.front());
  ASSERT_NE(reply, nullptr);
  const world::ObjectRef sampled = f.athena[2]->cached_object(SourceId{0});
  ASSERT_NE(sampled, nullptr);
  EXPECT_EQ(reply->object, sampled);
  EXPECT_EQ(f.athena[1]->cached_object(SourceId{0}), sampled);
  EXPECT_EQ(f.metrics.sensor_samples, 1u);
  EXPECT_EQ(f.metrics.object_reply_hops, 2u);
  EXPECT_EQ(f.metrics.object_bytes, 2u * sampled->bytes);
}

// A relay forwards a label share, and a label reply, with the batch it
// received: the next hop holds the same storage, not a copy.
TEST(AthenaNode, ForwardedLabelShareSharesItsBatch) {
  auto cfg = config_for(Scheme::kLvfl);
  cfg.prefetch = false;
  Fixture f(cfg);
  std::vector<Message> at_c;
  capture_at(f, 2, at_c);
  const SimTime at = f.net.now();
  const LabelBatch share_batch{true_value(0, at), true_value(1, at)};
  const LabelBatch reply_batch{true_value(3, at)};
  inject_at_b(f, LabelShare{share_batch, f.nodes[2]});
  inject_at_b(f, LabelReply{reply_batch, f.nodes[2], SourceId{2}});
  f.sim.run_until(SimTime::seconds(1));

  ASSERT_EQ(at_c.size(), 2u);
  const auto* share = std::get_if<LabelShare>(&at_c[0]);
  ASSERT_NE(share, nullptr);
  EXPECT_EQ(share->values.begin(), share_batch.begin());
  const auto* reply = std::get_if<LabelReply>(&at_c[1]);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->values.begin(), reply_batch.begin());
  // B cached the values it forwarded.
  for (const std::uint64_t l : {0, 1, 3}) {
    EXPECT_NE(f.athena[1]->cached_label(LabelId{l}), nullptr) << l;
  }
}

// The serve walk re-checks an interest only when one of its labels is put,
// and marks the sources covering that label, so an interest's source must
// cover every label it carries. A request breaking that aborts at bookmark.
TEST(AthenaNodeDeathTest, InterestWithLabelItsSourceDoesNotCoverAborts) {
  EXPECT_DEATH(
      {
        Fixture f;
        ObjectRequest r;
        r.query = QueryId{1};
        r.origin = f.nodes[0];
        r.source = SourceId{0};
        r.labels = {LabelId{2}};  // covered by sensor 1 only
        inject_at_b(f, r);
        f.sim.run_until(SimTime::seconds(1));
      },
      "does not cover every label");
}

// Multipath on the diamond: a critical request from A to sensor 0's host D
// leaves over B and, replicated, over C; D's reply comes back the same two
// ways. At each meeting point the second copy is dropped and counted once,
// and every node's replica entries drain through the GC.
TEST(AthenaNode, ReplicaCopiesConvergeOnceAndDrainThroughGc) {
  auto cfg = config_for(Scheme::kLvfl);
  cfg.prefetch = false;
  cfg.multipath_redundancy = 2;
  Fixture f(cfg, Shape::kDiamond);
  f.athena[0]->query_init(single_label(0), SimTime::seconds(30),
                          /*priority=*/1);
  f.sim.run_until(SimTime::seconds(1));
  ASSERT_TRUE(f.last_record(0).success());
  // One extra copy per leg: A's request replica and D's reply replica.
  EXPECT_EQ(f.metrics.replica_copies, 2u);
  // The request copies meet at D and the reply copies at A.
  EXPECT_EQ(f.metrics.replica_duplicates, 2u);
  // D served the first request copy only: its reply and the replica each
  // took two hops (D→B→A, D→C→A).
  EXPECT_EQ(f.metrics.object_reply_hops, 4u);
  // B and C each relayed one copy of both legs; A and D keep the key of
  // the leg that met there.
  EXPECT_EQ(f.athena[1]->dedup_entries(), 2u);
  EXPECT_EQ(f.athena[2]->dedup_entries(), 2u);
  EXPECT_EQ(f.athena[3]->dedup_entries(), 1u);
  // A crash forgets them, as it does every flood-dedup table.
  f.athena[3]->on_crash(fault::RestartPolicy::kWarm);
  EXPECT_EQ(f.athena[3]->dedup_entries(), 0u);
  // The relays hold nothing else, so 120 s on their entries are swept.
  f.sim.run_until(SimTime::seconds(200));
  EXPECT_EQ(f.athena[1]->dedup_entries(), 0u);
  EXPECT_EQ(f.athena[2]->dedup_entries(), 0u);
  // A's ingest entry outlives them; a long run drains all.
  f.sim.run_until(SimTime::seconds(3800));
  for (const auto& node : f.athena) {
    EXPECT_EQ(node->dedup_entries(), 0u);
  }
}

// A replica group is remembered for 120 s from its first copy: a copy in
// that window is a duplicate (and does not extend it), a copy after it is
// accepted as new.
TEST(AthenaNode, ReplicaGroupIsAcceptedAgainAfter120s) {
  auto cfg = config_for(Scheme::kLvfl);
  cfg.prefetch = false;
  cfg.multipath_redundancy = 2;
  Fixture f(cfg, Shape::kDiamond);
  const auto request_at_d = [&f](double at_s) {
    f.sim.run_until(SimTime::seconds(at_s));
    ObjectRequest r;
    r.query = QueryId{1};
    r.origin = f.nodes[0];
    r.source = SourceId{0};
    r.labels = {LabelId{0}};
    r.priority = 1;
    r.replica_group = 42;
    inject(f, 1, 3, r);
    f.sim.run_until(SimTime::seconds(at_s + 1));
  };
  // First copy: D serves it; the reply and its replica meet at A.
  request_at_d(0);
  EXPECT_EQ(f.metrics.object_reply_hops, 4u);
  EXPECT_EQ(f.metrics.replica_duplicates, 1u);
  // 60 s later the group is live at D: a duplicate, nothing served.
  request_at_d(60);
  EXPECT_EQ(f.metrics.object_reply_hops, 4u);
  EXPECT_EQ(f.metrics.replica_duplicates, 2u);
  // Had that copy refreshed the entry, it would live to ~180 s. It expired
  // at ~120 s instead, and the GC has swept it.
  f.sim.run_until(SimTime::seconds(125));
  EXPECT_EQ(f.athena[3]->dedup_entries(), 0u);
  // 130 s after the first copy the group is new again at every node.
  request_at_d(130);
  EXPECT_EQ(f.metrics.object_reply_hops, 8u);
  EXPECT_EQ(f.metrics.replica_duplicates, 3u);
}

// Dedup keys abort instead of aliasing: a replica group whose leg key
// (group * 2 + leg) would wrap, and a prefetch (origin, source) key whose
// origin id does not fit the 32 bits pack_node_counter gives it.
TEST(AthenaNodeDeathTest, ReplicaGroupTooLargeToKeyAborts) {
  EXPECT_DEATH(
      {
        Fixture f;
        ObjectRequest r;
        r.query = QueryId{1};
        r.origin = f.nodes[0];
        r.source = SourceId{0};
        r.labels = {LabelId{0}};
        r.priority = 1;
        r.replica_group = std::uint64_t{1} << 63;
        inject_at_b(f, r);
        f.sim.run_until(SimTime::seconds(1));
      },
      "too large to key both legs");
}

TEST(AthenaNodeDeathTest, PrefetchKeyOfOversizedOriginAborts) {
  EXPECT_DEATH(
      {
        Fixture f;
        // C hosts sensor 0, so an announce naming label 0 is keyed there.
        inject(f, 1, 2,
               QueryAnnounce{QueryId{1}, NodeId{std::uint64_t{1} << 32},
                             SimTime::seconds(30), {LabelId{0}}});
        f.sim.run_until(SimTime::seconds(1));
      },
      "exceeds 32 bits");
}

// Every packet between Athena nodes carries one Message; anything else
// reaching a node is a wiring bug and aborts instead of being ignored.
TEST(AthenaNodeDeathTest, NonMessagePayloadAborts) {
  EXPECT_DEATH(
      {
        Fixture f;
        net::Packet pkt;
        pkt.bytes = 100;
        pkt.payload = std::string("not a message");
        f.net.send(f.nodes[0], f.nodes[1], std::move(pkt));
        f.sim.run_until(SimTime::seconds(1));
      },
      "not an athena::Message");
}

TEST(Forwarder, ExpiredUnsweptMarkerIsNeitherPurgedNorReissued) {
  // A RecoveryHello purge must not depend on whether the GC has swept a
  // marker whose lease ran out: such a marker is absent, as in aggregate().
  Fixture f;
  AthenaConfig cfg = config_for(Scheme::kLvfl);
  cfg.recovery_lease = SimTime::seconds(5);
  Forwarder fw(f.dir, cfg);
  const SourceId src{0};
  ObjectRequest r;
  r.query = QueryId{1};
  r.origin = NodeId{0};
  r.source = src;
  r.labels = {LabelId{0}};
  fw.bookmark(NodeId{1}, r, SimTime::zero());  // the interest lives 120 s
  EXPECT_FALSE(fw.aggregate(src, SimTime::zero()));  // leased until 5 s
  std::uint64_t reissued = 0;
  const auto every = [](SourceId) { return true; };
  const auto count = [&reissued](SourceId, const Interest&) { ++reissued; };
  // At the lease's end, with no sweep in between: nothing to purge.
  EXPECT_EQ(fw.purge_markers(SimTime::seconds(5), every, count), 0u);
  EXPECT_EQ(reissued, 0u);
  // The next request re-leases the marker instead of aggregating onto it,
  // and a live marker is purged with its waiting interest re-issued.
  EXPECT_FALSE(fw.aggregate(src, SimTime::seconds(6)));
  EXPECT_EQ(fw.purge_markers(SimTime::seconds(7), every, count), 1u);
  EXPECT_EQ(reissued, 1u);
  EXPECT_EQ(fw.purge_markers(SimTime::seconds(7), every, count), 0u);
}

}  // namespace
}  // namespace dde::athena
