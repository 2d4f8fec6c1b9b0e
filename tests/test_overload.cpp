// Overload protection at the protocol layer: deadline-infeasibility
// shedding, admission control, congestion-adaptive prefetch throttling,
// state garbage collection, and seed reproduction with the knobs at their
// defaults.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "athena/directory.h"
#include "athena/node.h"
#include "des/simulator.h"
#include "scenario/route_scenario.h"

namespace dde::athena {
namespace {

using world::SensorInfo;

decision::DnfExpr single_label(std::uint64_t l) {
  decision::DnfExpr e;
  e.add_disjunct(decision::Conjunction{{decision::Term{LabelId{l}, false}}});
  return e;
}

/// Line network A(0) — B(1) — C(2), mirroring the test_athena_node fixture:
///   sensor 0 @ C covers segments {0 (viable), 1 (blocked)}, 1000 B, 100 s.
///   sensor 1 @ A covers segment {2 (viable)}, 800 B, 100 s.
///   sensor 2 @ C covers segment {3 (viable)}, 1000 B, 10 ms.
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
  /// Every query each node retired, in retirement order.
  std::vector<std::vector<QueryRecord>> retired =
      std::vector<std::vector<QueryRecord>>(3);

  static std::vector<world::SegmentDynamics> dynamics(std::size_t n) {
    std::vector<world::SegmentDynamics> d(
        n, world::SegmentDynamics{1.0, SimTime::seconds(1e7)});
    d[1].p_viable = 0.0;
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

  explicit Fixture(const AthenaConfig& cfg = config_for(Scheme::kLvfl))
      : truth(dynamics(map.segment_count()), Rng(1)),
        field(map, truth, sensors()),
        topo(),
        nodes(),
        sim(),
        net(make_net()),
        dir(topo, field, {NodeId{2}, NodeId{0}, NodeId{2}},
            {0.9, 0.1, 0.9, 0.9}) {
    for (std::size_t i = 0; i < 3; ++i) {
      athena.push_back(std::make_unique<AthenaNode>(NodeId{i}, net, dir, field,
                                                    cfg, metrics));
      athena.back()->set_retire_hook(
          [this, i](const QueryRecord& rec, const decision::DnfExpr&) {
            retired[i].push_back(rec);
          });
    }
  }

  net::Network make_net() {
    for (int i = 0; i < 3; ++i) nodes.push_back(topo.add_node());
    topo.add_link(nodes[0], nodes[1], 1e6, SimTime::millis(1));
    topo.add_link(nodes[1], nodes[2], 1e6, SimTime::millis(1));
    topo.compute_routes();
    return net::Network(sim, topo);
  }

  /// The record of the query `node` retired last.
  const QueryRecord& last_record(std::size_t node) const {
    static const QueryRecord kNone{};
    EXPECT_FALSE(retired[node].empty()) << "node " << node << " retired none";
    return retired[node].empty() ? kNone : retired[node].back();
  }

  /// Occupy a link with traffic the receiver does nothing with: an empty
  /// label share addressed to the receiver itself.
  void jam(std::size_t from, std::size_t to, int packets) {
    for (int i = 0; i < packets; ++i) {
      net::Packet p;
      p.bytes = 125000;  // 1 s of link time each
      p.payload = Message{LabelShare{{}, nodes[to]}};
      net.send(nodes[from], nodes[to], std::move(p));
    }
  }
};

TEST(Overload, InfeasibleDeadlineShedNotFailed) {
  auto cfg = config_for(Scheme::kLvfl);
  cfg.shed_infeasible = true;
  Fixture f(cfg);
  // Label 0 lives two hops away; even the lower-bound retrieval estimate
  // exceeds a 1 ms deadline, so the query is shed synchronously at init.
  f.athena[0]->query_init(single_label(0), SimTime::millis(1));
  EXPECT_EQ(f.metrics.queries_issued, 1u);
  EXPECT_EQ(f.metrics.queries_shed, 1u);
  EXPECT_EQ(f.metrics.queries_failed, 0u);
  EXPECT_EQ(f.last_record(0).outcome, Outcome::kShed);
  EXPECT_FALSE(f.last_record(0).success());
  f.sim.run_until(SimTime::seconds(5));
  // No object traffic was spent on the doomed query.
  EXPECT_EQ(f.metrics.object_requests, 0u);
  EXPECT_EQ(f.metrics.queries_shed, 1u);
  EXPECT_EQ(f.metrics.queries_failed, 0u);
}

TEST(Overload, WithoutShedKnobSameQueryFailsAtDeadline) {
  Fixture f;  // shed_infeasible off (default)
  f.athena[0]->query_init(single_label(0), SimTime::millis(1));
  f.sim.run_until(SimTime::seconds(5));
  EXPECT_EQ(f.metrics.queries_shed, 0u);
  EXPECT_EQ(f.metrics.queries_failed, 1u);
  EXPECT_EQ(f.last_record(0).outcome, Outcome::kExpired);
}

TEST(Overload, LocallyHostedEvidenceIsNeverShed) {
  auto cfg = config_for(Scheme::kLvfl);
  cfg.shed_infeasible = true;
  Fixture f(cfg);
  // Label 2's sensor is hosted at the querying node: always feasible, and
  // in fact resolved synchronously from the local sample.
  f.athena[0]->query_init(single_label(2), SimTime::millis(1));
  EXPECT_EQ(f.metrics.queries_shed, 0u);
  EXPECT_EQ(f.metrics.queries_resolved, 1u);
  EXPECT_TRUE(f.last_record(0).success());
}

TEST(Overload, AdmissionRejectsOnlyLowPriorityBeyondCap) {
  auto cfg = config_for(Scheme::kLvfl);
  cfg.admission_max_active = 2;
  Fixture f(cfg);
  // Two remote low-priority queries fill the admission budget...
  f.athena[0]->query_init(single_label(0), SimTime::seconds(30));
  f.athena[0]->query_init(single_label(3), SimTime::seconds(30));
  EXPECT_EQ(f.athena[0]->active_queries(), 2u);
  // ...the third low-priority query bounces at issue...
  f.athena[0]->query_init(single_label(0), SimTime::seconds(30));
  EXPECT_EQ(f.metrics.queries_rejected, 1u);
  EXPECT_EQ(f.last_record(0).outcome, Outcome::kShed);
  EXPECT_EQ(f.athena[0]->active_queries(), 2u);
  // ...but a critical query is admitted above the cap.
  f.athena[0]->query_init(single_label(0), SimTime::seconds(30),
                          /*priority=*/1);
  EXPECT_EQ(f.metrics.queries_rejected, 1u);
  EXPECT_EQ(f.retired[0].size(), 1u);  // only the rejected query retired
  EXPECT_EQ(f.athena[0]->active_queries(), 3u);
  EXPECT_EQ(f.metrics.queries_issued, 4u);
  f.sim.run_until(SimTime::seconds(40));
  // Rejected queries never join the resolved/failed tallies.
  EXPECT_EQ(f.metrics.queries_resolved + f.metrics.queries_failed +
                f.metrics.queries_rejected,
            4u);
}

TEST(Overload, PrefetchThrottleEngagesAndRecovers) {
  auto cfg = config_for(Scheme::kLvfl);
  ASSERT_TRUE(cfg.prefetch);
  cfg.prefetch_watermark = 1;
  Fixture f(cfg);
  // Jam C→B with 3 s of opaque traffic: C's prefetch push toward the
  // origin sees a queue above the watermark and defers. The query comes
  // from B — announces travel one hop, so the hosting node C only hears
  // (and pushes for) queries of a direct neighbor.
  f.jam(2, 1, 3);
  f.athena[1]->query_init(single_label(0), SimTime::seconds(20));
  f.sim.run_until(SimTime::seconds(30));
  EXPECT_GE(f.metrics.prefetch_throttled, 1u);
  // Once the jam drained, the deferred push went out after all — the
  // throttle delays background work, it never cancels it.
  EXPECT_GT(f.metrics.prefetch_pushes, 0u);
  EXPECT_EQ(f.metrics.queries_resolved, 1u);
}

TEST(Overload, UnthrottledPrefetchPushesImmediately) {
  auto cfg = config_for(Scheme::kLvfl);
  ASSERT_TRUE(cfg.prefetch);
  cfg.prefetch_watermark = 1;
  Fixture f(cfg);
  // Same query with idle links: the watermark never trips.
  f.athena[1]->query_init(single_label(0), SimTime::seconds(20));
  f.sim.run_until(SimTime::seconds(30));
  EXPECT_EQ(f.metrics.prefetch_throttled, 0u);
  EXPECT_GT(f.metrics.push_bytes, 0u);
}

TEST(Overload, GcDrainsInterestForwardingAndDedupState) {
  Fixture f;
  f.athena[0]->query_init(single_label(0), SimTime::seconds(2));
  f.athena[0]->broadcast_invalidation({LabelId{0}});
  // Protocol state exists while the flood and fetch are live.
  f.sim.run_until(SimTime::millis(50));
  std::size_t held = 0;
  for (const auto& node : f.athena) held += node->dedup_entries();
  EXPECT_GT(held, 0u);
  // Well past every deadline and TTL (the ingested object's entry lives
  // until its 100 s expiry plus the hour-long kDedupTtl), the background
  // sweep has returned the node to an empty steady state — nothing grows
  // without bound.
  f.sim.run_until(SimTime::seconds(3800));
  for (const auto& node : f.athena) {
    EXPECT_EQ(node->interest_entries(), 0u);
    EXPECT_EQ(node->forwarded_entries(), 0u);
    EXPECT_EQ(node->dedup_entries(), 0u);
  }
}

// The guarantee the whole PR rests on: with every overload knob at its
// default, runs are bit-for-bit the seed behaviour; and with the knobs
// *enabled* but set permissively enough never to bind, they still are.
TEST(Overload, PermissiveKnobsReproduceDefaultRunBitForBit) {
  scenario::ScenarioConfig base;
  base.queries_per_node = 2;
  base.horizon = SimTime::seconds(120);
  base.seed = 7;

  auto run = [&](bool knobs) {
    scenario::ScenarioConfig cfg = base;
    if (knobs) {
      cfg.link_queue_max_packets = 1'000'000;
      cfg.link_queue_max_bytes = std::uint64_t{1} << 40;
      auto ac = config_for(cfg.scheme);
      ac.shed_infeasible = true;  // 240 s deadlines are always feasible
      ac.admission_max_active = 1'000'000;
      ac.prefetch_watermark = 1'000'000;
      cfg.config_override = ac;
    }
    return scenario::run_route_scenario(cfg);
  };

  const auto a = run(false);
  const auto b = run(true);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.traffic, b.traffic);  // every TrafficStats field
  EXPECT_EQ(a.metrics, b.metrics);  // every AthenaMetrics field
  EXPECT_EQ(b.traffic.queue_drops, 0u);
  EXPECT_EQ(b.metrics.queries_shed, 0u);
  EXPECT_EQ(b.metrics.queries_rejected, 0u);
  EXPECT_EQ(b.metrics.prefetch_throttled, 0u);
  EXPECT_EQ(a.totals, b.totals);  // per-class totals and outcome digest
}

}  // namespace
}  // namespace dde::athena
