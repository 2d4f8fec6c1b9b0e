// Multipath transmission primitives (src/net/multipath.h): alternate
// next-hop ranking over the routing topology. Receiver-side replica dedup
// is tested at the node (tests/test_athena_node.cpp).
#include "net/multipath.h"

#include <gtest/gtest.h>

#include "net/topology.h"

namespace dde::net {
namespace {

/// Star: center 0 joined to leaves 1..4; leaves only reach each other
/// through the center.
Topology star() {
  Topology t;
  const NodeId c = t.add_node();
  for (int i = 0; i < 4; ++i) {
    t.add_link(c, t.add_node());
  }
  t.compute_routes();
  return t;
}

/// Diamond: 0 — {1, 2, 3} — 4. Three equal-length disjoint paths.
Topology diamond() {
  Topology t;
  const NodeId a = t.add_node();
  const NodeId m1 = t.add_node();
  const NodeId m2 = t.add_node();
  const NodeId m3 = t.add_node();
  const NodeId b = t.add_node();
  for (NodeId m : {m1, m2, m3}) {
    t.add_link(a, m);
    t.add_link(m, b);
  }
  t.compute_routes();
  return t;
}

TEST(Multipath, DownhillNeighborsOnDiamond) {
  const Topology t = diamond();
  // From 0 toward 4 every middle node is one hop closer, in id order.
  const auto down = downhill_neighbors(t, NodeId{0}, NodeId{4});
  ASSERT_EQ(down.size(), 3u);
  EXPECT_EQ(down[0], NodeId{1});
  EXPECT_EQ(down[1], NodeId{2});
  EXPECT_EQ(down[2], NodeId{3});
  // From a middle node toward 4 only the destination itself is downhill
  // (node 0 is uphill, sibling middles are equal-distance).
  const auto mid = downhill_neighbors(t, NodeId{1}, NodeId{4});
  ASSERT_EQ(mid.size(), 1u);
  EXPECT_EQ(mid[0], NodeId{4});
}

TEST(Multipath, DownhillNeighborsExcludeUphillOnStar) {
  const Topology t = star();
  // Leaf 1 toward leaf 2: the center is the only way down.
  const auto down = downhill_neighbors(t, NodeId{1}, NodeId{2});
  ASSERT_EQ(down.size(), 1u);
  EXPECT_EQ(down[0], NodeId{0});
  // The center toward a leaf: just that leaf.
  const auto from_center = downhill_neighbors(t, NodeId{0}, NodeId{3});
  ASSERT_EQ(from_center.size(), 1u);
  EXPECT_EQ(from_center[0], NodeId{3});
}

TEST(Multipath, AlternateNextHopsSkipUsedAndCap) {
  const Topology t = diamond();
  // Primary path already uses node 1; two alternates remain, best-first.
  const auto alts =
      alternate_next_hops(t, NodeId{0}, NodeId{4}, 2, {NodeId{1}});
  ASSERT_EQ(alts.size(), 2u);
  EXPECT_EQ(alts[0], NodeId{2});
  EXPECT_EQ(alts[1], NodeId{3});
  // Asking for more than exist returns what exists.
  const auto all =
      alternate_next_hops(t, NodeId{0}, NodeId{4}, 10, {NodeId{1}});
  EXPECT_EQ(all.size(), 2u);
  // k = 0: none.
  EXPECT_TRUE(alternate_next_hops(t, NodeId{0}, NodeId{4}, 0, {}).empty());
}

TEST(Multipath, AlternatesDeterministicAcrossCalls) {
  const Topology t = diamond();
  const auto a = alternate_next_hops(t, NodeId{0}, NodeId{4}, 3, {});
  const auto b = alternate_next_hops(t, NodeId{0}, NodeId{4}, 3, {});
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace dde::net
