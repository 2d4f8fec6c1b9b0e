#include "net/topology.h"

#include <gtest/gtest.h>

#include <vector>

namespace dde::net {
namespace {

/// Line topology: 0 - 1 - 2 - 3.
Topology line(std::size_t n) {
  Topology t;
  std::vector<NodeId> nodes;
  for (std::size_t i = 0; i < n; ++i) nodes.push_back(t.add_node());
  for (std::size_t i = 0; i + 1 < n; ++i) t.add_link(nodes[i], nodes[i + 1]);
  t.compute_routes();
  return t;
}

TEST(Link, TransmissionTime) {
  Link l;
  l.bandwidth_bps = 1e6;
  EXPECT_EQ(l.transmission_time(125000), SimTime::seconds(1));  // 1 Mb at 1 Mbps
  EXPECT_EQ(l.transmission_time(0), SimTime::zero());
}

TEST(Topology, AddNodesAndLinks) {
  Topology t;
  const NodeId a = t.add_node();
  const NodeId b = t.add_node();
  EXPECT_EQ(t.node_count(), 2u);
  const auto [ab, ba] = t.add_link(a, b, 2e6, SimTime::millis(5));
  EXPECT_EQ(t.link_count(), 2u);
  EXPECT_EQ(t.link(ab).from, a);
  EXPECT_EQ(t.link(ab).to, b);
  EXPECT_EQ(t.link(ba).from, b);
  EXPECT_DOUBLE_EQ(t.link(ab).bandwidth_bps, 2e6);
  EXPECT_EQ(t.link(ab).latency, SimTime::millis(5));
}

TEST(Topology, LinkBetween) {
  const Topology t = line(3);
  EXPECT_TRUE(t.link_between(NodeId{0}, NodeId{1}).has_value());
  EXPECT_TRUE(t.link_between(NodeId{1}, NodeId{0}).has_value());
  EXPECT_FALSE(t.link_between(NodeId{0}, NodeId{2}).has_value());
}

TEST(Topology, Neighbors) {
  const Topology t = line(4);
  EXPECT_EQ(t.neighbors(NodeId{0}).size(), 1u);
  EXPECT_EQ(t.neighbors(NodeId{1}).size(), 2u);
  const auto n1 = t.neighbors(NodeId{1});
  EXPECT_NE(std::find(n1.begin(), n1.end(), NodeId{0}), n1.end());
  EXPECT_NE(std::find(n1.begin(), n1.end(), NodeId{2}), n1.end());
}

TEST(Topology, NextHopAlongLine) {
  const Topology t = line(4);
  EXPECT_EQ(t.next_hop(NodeId{0}, NodeId{3}), NodeId{1});
  EXPECT_EQ(t.next_hop(NodeId{1}, NodeId{3}), NodeId{2});
  EXPECT_EQ(t.next_hop(NodeId{3}, NodeId{0}), NodeId{2});
  EXPECT_EQ(t.next_hop(NodeId{2}, NodeId{2}), NodeId{2});
}

TEST(Topology, HopDistance) {
  const Topology t = line(5);
  EXPECT_EQ(t.hop_distance(NodeId{0}, NodeId{4}), 4u);
  EXPECT_EQ(t.hop_distance(NodeId{2}, NodeId{2}), 0u);
  EXPECT_EQ(t.hop_distance(NodeId{4}, NodeId{1}), 3u);
}

TEST(Topology, UnreachableNodes) {
  Topology t;
  const NodeId a = t.add_node();
  const NodeId b = t.add_node();
  (void)a;
  (void)b;
  t.compute_routes();
  EXPECT_FALSE(t.next_hop(NodeId{0}, NodeId{1}).has_value());
  EXPECT_FALSE(t.hop_distance(NodeId{0}, NodeId{1}).has_value());
}

TEST(Topology, RoutesNotComputedReturnsNullopt) {
  Topology t;
  t.add_node();
  t.add_node();
  EXPECT_FALSE(t.next_hop(NodeId{0}, NodeId{1}).has_value());
}

TEST(Topology, PrefersFastPath) {
  // Triangle with a slow direct link and a fast two-hop path:
  //   0 —slow— 2,  0 —fast— 1 —fast— 2
  Topology t;
  const NodeId n0 = t.add_node();
  const NodeId n1 = t.add_node();
  const NodeId n2 = t.add_node();
  t.add_link(n0, n2, 1e6, SimTime::seconds(10));  // slow (huge latency)
  t.add_link(n0, n1, 1e6, SimTime::millis(1));
  t.add_link(n1, n2, 1e6, SimTime::millis(1));
  t.compute_routes();
  EXPECT_EQ(t.next_hop(n0, n2), n1);
}

TEST(Topology, PrefersDirectWhenEqualBandwidth) {
  // Triangle with equal links: direct is cheaper than two hops.
  Topology t;
  const NodeId n0 = t.add_node();
  const NodeId n1 = t.add_node();
  const NodeId n2 = t.add_node();
  t.add_link(n0, n2);
  t.add_link(n0, n1);
  t.add_link(n1, n2);
  t.compute_routes();
  EXPECT_EQ(t.next_hop(n0, n2), n2);
  EXPECT_EQ(t.hop_distance(n0, n2), 1u);
}

TEST(Topology, FollowNextHopsReachesEveryDestination) {
  // Grid-ish topology: 3×3 mesh.
  Topology t;
  std::vector<NodeId> nodes;
  for (int i = 0; i < 9; ++i) nodes.push_back(t.add_node());
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 3; ++x) {
      if (x + 1 < 3) t.add_link(nodes[y * 3 + x], nodes[y * 3 + x + 1]);
      if (y + 1 < 3) t.add_link(nodes[y * 3 + x], nodes[(y + 1) * 3 + x]);
    }
  }
  t.compute_routes();
  for (std::size_t from = 0; from < 9; ++from) {
    for (std::size_t to = 0; to < 9; ++to) {
      NodeId cur{from};
      int steps = 0;
      while (cur != NodeId{to}) {
        const auto next = t.next_hop(cur, NodeId{to});
        ASSERT_TRUE(next.has_value());
        ASSERT_TRUE(t.link_between(cur, *next).has_value())
            << "next hop must be adjacent";
        cur = *next;
        ASSERT_LE(++steps, 8) << "route must not loop";
      }
      EXPECT_EQ(static_cast<std::size_t>(steps),
                *t.hop_distance(NodeId{from}, NodeId{to}));
    }
  }
}

TEST(Topology, ComputeRoutesWithDisabledLinksRoutesAround) {
  // Diamond: 0 - 1 - 2 and 0 - 3 - 2.
  Topology t;
  std::vector<NodeId> n;
  for (int i = 0; i < 4; ++i) n.push_back(t.add_node());
  const auto [l01, l10] = t.add_link(n[0], n[1]);
  t.add_link(n[1], n[2]);
  t.add_link(n[0], n[3]);
  t.add_link(n[3], n[2]);
  t.compute_routes();
  EXPECT_EQ(t.hop_distance(n[0], n[2]), 2u);

  // Disable the 0–1 pair: everything must route via 3.
  std::vector<char> enabled(t.link_count(), 1);
  enabled[l01.value()] = 0;
  enabled[l10.value()] = 0;
  t.compute_routes(enabled);
  EXPECT_EQ(t.next_hop(n[0], n[2]), n[3]);
  EXPECT_EQ(t.next_hop(n[0], n[1]), n[3]) << "even 0→1 detours the long way";
  EXPECT_EQ(t.hop_distance(n[0], n[1]), 3u);

  // Disabling both sides of the diamond cuts 0 off entirely.
  const auto l03 = *t.link_between(n[0], n[3]);
  const auto l30 = *t.link_between(n[3], n[0]);
  enabled[l03.value()] = 0;
  enabled[l30.value()] = 0;
  t.compute_routes(enabled);
  EXPECT_FALSE(t.next_hop(n[0], n[2]).has_value());
  EXPECT_EQ(t.next_hop(n[1], n[2]), n[2]) << "the rest of the mesh survives";

  // An empty mask means "all enabled" and matches a plain recompute.
  t.compute_routes(std::vector<char>());
  EXPECT_EQ(t.hop_distance(n[0], n[2]), 2u);
}

TEST(Topology, RoutesEpochBumpsOnRecompute) {
  Topology t;
  const NodeId a = t.add_node();
  const NodeId b = t.add_node();
  const NodeId c = t.add_node();
  t.add_link(a, b);
  t.add_link(b, c);
  t.add_link(a, c);
  t.compute_routes();
  const std::uint64_t first = t.routes_epoch();
  ASSERT_EQ(t.hop_distance(a, c), 1u);
  // A reroute around the a—c link moves the epoch and the hop count.
  std::vector<char> enabled(t.link_count(), 1);
  enabled[t.link_between(a, c)->value()] = 0;
  enabled[t.link_between(c, a)->value()] = 0;
  t.compute_routes(enabled);
  const std::uint64_t second = t.routes_epoch();
  EXPECT_GT(second, first);
  EXPECT_EQ(t.hop_distance(a, c), 2u);
  // Recomputing the same routes still starts a new epoch.
  t.compute_routes(enabled);
  EXPECT_GT(t.routes_epoch(), second);
  // So does a graph edit, which invalidates the routes.
  const std::uint64_t third = t.routes_epoch();
  t.add_node();
  EXPECT_GT(t.routes_epoch(), third);
}

TEST(Topology, LinkThrowsOnBadId) {
  const Topology t = line(2);
  EXPECT_THROW((void)t.link(LinkId{999}), std::out_of_range);
}

}  // namespace
}  // namespace dde::net
