#include "net/topology.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

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

/// Routes from a plain Dijkstra per destination over reversed edges:
/// std::priority_queue of (distance, node), every link scanned in link order
/// for each settled node, strict improvement only. Unreachable entries are
/// nullopt.
struct ReferenceRoutes {
  std::vector<std::optional<NodeId>> next;  // [from * n + dest]
  std::vector<std::optional<std::size_t>> hops;
  std::size_t ties = 0;  // relaxations that matched an equal-cost path
};

ReferenceRoutes reference_routes(const Topology& t,
                                 const std::vector<char>& enabled) {
  const std::size_t n = t.node_count();
  ReferenceRoutes out;
  out.next.assign(n * n, std::nullopt);
  out.hops.assign(n * n, std::nullopt);
  for (std::size_t dest = 0; dest < n; ++dest) {
    std::vector<double> dist(n, std::numeric_limits<double>::infinity());
    std::vector<std::optional<std::size_t>> hops(n);
    std::vector<std::optional<NodeId>> next(n);
    using Item = std::pair<double, std::size_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    dist[dest] = 0.0;
    hops[dest] = 0;
    next[dest] = NodeId{dest};
    pq.emplace(0.0, dest);
    while (!pq.empty()) {
      const auto [d, u] = pq.top();
      pq.pop();
      if (d > dist[u]) continue;
      for (const Link& l : t.links()) {
        if (l.to.value() != u) continue;
        if (!enabled.empty() && enabled[l.id.value()] == 0) continue;
        const std::size_t v = l.from.value();
        const double w =
            l.latency.to_seconds() + 1024.0 * 8.0 / l.bandwidth_bps;
        if (dist[u] + w < dist[v]) {
          dist[v] = dist[u] + w;
          hops[v] = *hops[u] + 1;
          next[v] = NodeId{u};
          pq.emplace(dist[v], v);
        } else if (dist[u] + w == dist[v] && v != dest) {
          ++out.ties;
        }
      }
    }
    for (std::size_t from = 0; from < n; ++from) {
      out.next[from * n + dest] = next[from];
      out.hops[from * n + dest] = hops[from];
    }
  }
  return out;
}

/// Routes `t` (with compute_routes() when `enabled` is null, else under
/// `*enabled`) and checks every pair against reference_routes. Adds the
/// reference's equal-cost ties and unreachable pairs to the counters.
void expect_reference_routes(Topology& t, const std::vector<char>* enabled,
                             std::size_t& ties, std::size_t& unreachable) {
  if (enabled == nullptr) {
    t.compute_routes();
  } else {
    t.compute_routes(*enabled);
  }
  const ReferenceRoutes want =
      reference_routes(t, enabled == nullptr ? std::vector<char>() : *enabled);
  ties += want.ties;
  const std::size_t n = t.node_count();
  for (std::size_t from = 0; from < n; ++from) {
    for (std::size_t dest = 0; dest < n; ++dest) {
      const std::size_t i = from * n + dest;
      ASSERT_EQ(t.next_hop(NodeId{from}, NodeId{dest}), want.next[i])
          << from << " -> " << dest;
      ASSERT_EQ(t.hop_distance(NodeId{from}, NodeId{dest}), want.hops[i])
          << from << " -> " << dest;
      if (!want.hops[i]) ++unreachable;
    }
  }
}

// Random weighted graphs, some disconnected, with link weights from a
// small set so equal-cost paths are common, routed with no mask, with an
// all-enabled mask and with random directed links disabled.
TEST(Topology, RoutesMatchReferenceDijkstra) {
  Rng rng(2417);
  const double bandwidths[] = {1e6, 2e6};
  const std::int64_t latencies_ms[] = {1, 2};
  std::size_t ties = 0;
  std::size_t unreachable = 0;
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Topology t;
    const std::size_t n = 2 + rng.below(23);
    for (std::size_t i = 0; i < n; ++i) t.add_node();
    const double p = rng.uniform(0.05, 0.4);
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        if (!rng.chance(p)) continue;
        t.add_link(NodeId{a}, NodeId{b}, bandwidths[rng.below(2)],
                   SimTime::millis(latencies_ms[rng.below(2)]));
      }
    }
    std::vector<char> all(t.link_count(), 1);
    std::vector<char> some(t.link_count(), 1);
    for (char& e : some) e = rng.chance(0.25) ? 0 : 1;
    ASSERT_NO_FATAL_FAILURE(expect_reference_routes(t, nullptr, ties,
                                                    unreachable));
    ASSERT_NO_FATAL_FAILURE(expect_reference_routes(t, &all, ties,
                                                    unreachable));
    ASSERT_NO_FATAL_FAILURE(expect_reference_routes(t, &some, ties,
                                                    unreachable));
  }
  // The sample exercises both tie-breaks and unreachable pairs.
  EXPECT_GT(ties, 100u);
  EXPECT_GT(unreachable, 100u);
}

// Every link with one bandwidth and one latency, as in the paper's network
// (the breadth-first pass): random graphs of up to 40 nodes, some
// disconnected, with no mask, an all-enabled mask and random directed
// masks. Equal-hop ties are common, so the next hop's smallest-id rule is
// checked against the heap's pop order many times over.
TEST(Topology, EqualWeightRoutesMatchReferenceDijkstra) {
  Rng rng(3319);
  std::size_t ties = 0;
  std::size_t unreachable = 0;
  for (int trial = 0; trial < 150; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Topology t;
    const std::size_t n = 2 + rng.below(39);
    for (std::size_t i = 0; i < n; ++i) t.add_node();
    const double p = rng.uniform(0.03, 0.3);
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        if (rng.chance(p)) t.add_link(NodeId{a}, NodeId{b});
      }
    }
    std::vector<char> all(t.link_count(), 1);
    ASSERT_NO_FATAL_FAILURE(expect_reference_routes(t, nullptr, ties,
                                                    unreachable));
    ASSERT_NO_FATAL_FAILURE(expect_reference_routes(t, &all, ties,
                                                    unreachable));
    for (const double off : {0.1, 0.4}) {
      std::vector<char> some(t.link_count(), 1);
      for (char& e : some) e = rng.chance(off) ? 0 : 1;
      ASSERT_NO_FATAL_FAILURE(expect_reference_routes(t, &some, ties,
                                                      unreachable));
    }
  }
  EXPECT_GT(ties, 1000u);
  EXPECT_GT(unreachable, 1000u);
}

// A 4x4 mesh of equal links plus diagonals, and one shortcut 0—15 at
// another bandwidth: with the shortcut enabled the heap pass routes, and
// with it disabled every enabled link is equal again and the breadth-first
// pass routes. Both must match the reference, as must the mesh with every
// weight zero (latency 0 over an infinite bandwidth), where every distance
// ties at 0, and with weights so large that two hops already overflow.
TEST(Topology, RouteTablesMatchReferenceAcrossWeightClasses) {
  const auto mesh = [](double bandwidth, SimTime latency) {
    Topology t;
    for (int i = 0; i < 16; ++i) t.add_node();
    for (std::size_t y = 0; y < 4; ++y) {
      for (std::size_t x = 0; x < 4; ++x) {
        const std::size_t here = y * 4 + x;
        const auto link = [&](std::size_t to) {
          t.add_link(NodeId{here}, NodeId{to}, bandwidth, latency);
        };
        if (x + 1 < 4) link(here + 1);
        if (y + 1 < 4) link(here + 4);
        if (x + 1 < 4 && y + 1 < 4) link(here + 5);
      }
    }
    return t;
  };
  std::size_t ties = 0;
  std::size_t unreachable = 0;
  Topology mixed = mesh(1e6, SimTime::millis(2));
  const auto [ab, ba] =
      mixed.add_link(NodeId{0}, NodeId{15}, 2e6, SimTime::millis(2));
  ASSERT_NO_FATAL_FAILURE(expect_reference_routes(mixed, nullptr, ties,
                                                  unreachable));
  std::vector<char> enabled(mixed.link_count(), 1);
  enabled[ab.value()] = 0;
  enabled[ba.value()] = 0;
  ASSERT_NO_FATAL_FAILURE(expect_reference_routes(mixed, &enabled, ties,
                                                  unreachable));

  const double inf = std::numeric_limits<double>::infinity();
  Topology zero = mesh(inf, SimTime::zero());
  ASSERT_NO_FATAL_FAILURE(expect_reference_routes(zero, nullptr, ties,
                                                  unreachable));
  // Two hops of 1e308 s overflow to infinity, so only neighbours route.
  Topology huge = mesh(1024.0 * 8.0 / 1e308, SimTime::zero());
  ASSERT_NO_FATAL_FAILURE(expect_reference_routes(huge, nullptr, ties,
                                                  unreachable));
  EXPECT_EQ(huge.hop_distance(NodeId{0}, NodeId{1}), 1u);
  EXPECT_FALSE(huge.hop_distance(NodeId{0}, NodeId{2}).has_value());
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

// Route lookups index an n² table, so an id outside the graph aborts
// instead of reading another pair's entry.
TEST(TopologyDeathTest, HopDistanceAbortsOnUnknownNode) {
  const Topology t = line(3);
  EXPECT_DEATH((void)t.hop_distance(NodeId{0}, NodeId{3}),
               "unknown destination node");
  EXPECT_DEATH((void)t.hop_distance(NodeId{7}, NodeId{0}),
               "unknown source node");
  EXPECT_DEATH((void)t.hop_distance(NodeId{}, NodeId{0}),
               "unknown source node");
  EXPECT_DEATH((void)t.hop_distance(NodeId{0}, NodeId{}),
               "unknown destination node");
}

}  // namespace
}  // namespace dde::net
