#include "world/grid_map.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "world/dynamics.h"
#include "world/sensor_field.h"

namespace dde::world {
namespace {

TEST(GridMap, SegmentCount) {
  // width*(height+1) horizontal + height*(width+1) vertical edges.
  const GridMap m(8, 8);
  EXPECT_EQ(m.segment_count(), 8u * 9u + 8u * 9u);
  const GridMap m2(3, 2);
  EXPECT_EQ(m2.segment_count(), 3u * 3u + 2u * 4u);
}

TEST(GridMap, SegmentIdsAreDense) {
  const GridMap m(4, 4);
  for (std::size_t i = 0; i < m.segment_count(); ++i) {
    EXPECT_EQ(m.segment(SegmentId{i}).id, SegmentId{i});
  }
}

TEST(GridMap, SegmentThrowsOnBadId) {
  const GridMap m(2, 2);
  EXPECT_THROW((void)m.segment(SegmentId{9999}), std::out_of_range);
  EXPECT_THROW((void)m.segment(SegmentId{}), std::out_of_range);
}

TEST(GridMap, SegmentBetweenAdjacent) {
  const GridMap m(3, 3);
  const auto h = m.segment_between({0, 0}, {1, 0});
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(m.segment(*h).horizontal);
  const auto v = m.segment_between({2, 1}, {2, 2});
  ASSERT_TRUE(v.has_value());
  EXPECT_FALSE(m.segment(*v).horizontal);
  // Symmetric.
  EXPECT_EQ(m.segment_between({1, 0}, {0, 0}), h);
}

TEST(GridMap, SegmentBetweenNonAdjacent) {
  const GridMap m(3, 3);
  EXPECT_FALSE(m.segment_between({0, 0}, {2, 0}).has_value());
  EXPECT_FALSE(m.segment_between({0, 0}, {1, 1}).has_value());
  EXPECT_FALSE(m.segment_between({0, 0}, {0, 0}).has_value());
  EXPECT_FALSE(m.segment_between({0, 0}, {0, 9}).has_value());
}

TEST(GridMap, SegmentsNearCoversFootprint) {
  const GridMap m(4, 4);
  const auto near = m.segments_near(2.0, 2.0, 0.6);
  EXPECT_FALSE(near.empty());
  for (SegmentId id : near) {
    const auto& s = m.segment(id);
    EXPECT_LE(std::abs(s.mid_x() - 2.0), 0.6);
    EXPECT_LE(std::abs(s.mid_y() - 2.0), 0.6);
  }
}

TEST(GridMap, SegmentsNearLargeRadiusIsEverything) {
  const GridMap m(3, 3);
  EXPECT_EQ(m.segments_near(1.5, 1.5, 100.0).size(), m.segment_count());
}

TEST(GridMap, RandomIntersectionInRange) {
  const GridMap m(5, 3);
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const auto p = m.random_intersection(rng);
    EXPECT_GE(p.x, 0);
    EXPECT_LE(p.x, 5);
    EXPECT_GE(p.y, 0);
    EXPECT_LE(p.y, 3);
  }
}

TEST(GridMap, MonotoneRouteConnectsEndpoints) {
  const GridMap m(6, 6);
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    const auto from = m.random_intersection(rng);
    const auto to = m.random_intersection(rng);
    const Route r = m.random_monotone_route(from, to, rng);
    EXPECT_EQ(r.origin, from);
    EXPECT_EQ(r.destination, to);
    // Length = L1 distance; segments pairwise adjacent along the walk.
    EXPECT_EQ(r.segments.size(), static_cast<std::size_t>(
                                     std::abs(from.x - to.x) +
                                     std::abs(from.y - to.y)));
    Intersection cur = from;
    for (SegmentId id : r.segments) {
      const auto& seg = m.segment(id);
      // The segment must touch the current intersection; step to the other end.
      const bool touches_a = seg.a == cur;
      const bool touches_b = seg.b == cur;
      ASSERT_TRUE(touches_a || touches_b);
      cur = touches_a ? seg.b : seg.a;
    }
    EXPECT_EQ(cur, to);
  }
}

TEST(GridMap, MonotoneRouteSameEndpointsIsEmpty) {
  const GridMap m(3, 3);
  Rng rng(3);
  const Route r = m.random_monotone_route({1, 1}, {1, 1}, rng);
  EXPECT_TRUE(r.segments.empty());
}

TEST(GridMap, RouteChoicesAreDistinctAndFarEnough) {
  const GridMap m(8, 8);
  Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    const auto routes = m.random_route_choices(5, 4, rng);
    ASSERT_FALSE(routes.empty());
    std::set<std::vector<SegmentId>> seen;
    for (const auto& r : routes) {
      EXPECT_TRUE(seen.insert(r.segments).second) << "duplicate route";
      EXPECT_GE(static_cast<int>(r.segments.size()), 4);
      EXPECT_EQ(r.origin, routes[0].origin);
      EXPECT_EQ(r.destination, routes[0].destination);
    }
  }
}

TEST(GridMap, RouteChoicesStraightLineYieldsOne) {
  const GridMap m(8, 1);
  Rng rng(5);
  // With height 1 and min distance 8, origins/destinations can still differ
  // in y by at most 1, so route diversity is limited — the call must not
  // hang or return duplicates.
  const auto routes = m.random_route_choices(5, 8, rng);
  ASSERT_FALSE(routes.empty());
  std::set<std::vector<SegmentId>> seen;
  for (const auto& r : routes) EXPECT_TRUE(seen.insert(r.segments).second);
}

// The route draw before move-key dedup, kept as the reference: one segment
// vector per drawn route, a std::set for distinctness, and the coverage
// filter applied afterwards to the whole call's result. Segment ids come
// from segments() geometry, independent of GridMap's id arithmetic.
class SetReference {
 public:
  explicit SetReference(const GridMap& map) : map_(map) {
    for (const Segment& s : map.segments()) {
      by_ends_[{{s.a.x, s.a.y}, {s.b.x, s.b.y}}] = s.id;
    }
  }

  Route random_monotone_route(Intersection from, Intersection to,
                              Rng& rng) const {
    Route route;
    route.origin = from;
    route.destination = to;
    Intersection cur = from;
    const int dx = to.x > from.x ? 1 : -1;
    const int dy = to.y > from.y ? 1 : -1;
    while (cur != to) {
      const int remaining_x = std::abs(to.x - cur.x);
      const int remaining_y = std::abs(to.y - cur.y);
      const bool move_x =
          remaining_y == 0 ||
          (remaining_x > 0 &&
           rng.below(static_cast<std::uint64_t>(remaining_x + remaining_y)) <
               static_cast<std::uint64_t>(remaining_x));
      Intersection next = cur;
      if (move_x) {
        next.x += dx;
      } else {
        next.y += dy;
      }
      route.segments.push_back(segment_between(cur, next));
      cur = next;
    }
    return route;
  }

  std::vector<Route> random_route_choices(std::size_t k, int min_distance,
                                          Rng& rng,
                                          const std::vector<char>& covered) const {
    min_distance = std::clamp(min_distance, 1, map_.width() + map_.height());
    Intersection from{};
    Intersection to{};
    do {
      from = map_.random_intersection(rng);
      to = map_.random_intersection(rng);
    } while (std::abs(from.x - to.x) + std::abs(from.y - to.y) < min_distance);

    // Count the pair's distinct monotone paths on Pascal's triangle: the
    // draw stops once it holds all of them.
    const auto dx = static_cast<std::size_t>(std::abs(to.x - from.x));
    const auto dy = static_cast<std::size_t>(std::abs(to.y - from.y));
    std::vector<std::uint64_t> row(dx + 1, 1);
    for (std::size_t y = 0; y < dy; ++y) {
      for (std::size_t x = 1; x <= dx; ++x) row[x] += row[x - 1];
    }
    const std::uint64_t wanted = std::min<std::uint64_t>(k, row[dx]);

    std::vector<Route> routes;
    std::set<std::vector<SegmentId>> seen;
    const std::size_t max_attempts = 20 * k + 20;
    for (std::size_t attempt = 0;
         attempt < max_attempts && routes.size() < wanted; ++attempt) {
      Route r = random_monotone_route(from, to, rng);
      if (seen.insert(r.segments).second) routes.push_back(std::move(r));
    }
    if (!covered.empty()) {
      std::erase_if(routes, [&](const Route& r) {
        return !std::all_of(r.segments.begin(), r.segments.end(),
                            [&](SegmentId s) { return covered[s.value()] != 0; });
      });
    }
    return routes;
  }

 private:
  SegmentId segment_between(Intersection a, Intersection b) const {
    return by_ends_.at({{std::min(a.x, b.x), std::min(a.y, b.y)},
                        {std::max(a.x, b.x), std::max(a.y, b.y)}});
  }

  const GridMap& map_;
  std::map<std::pair<std::pair<int, int>, std::pair<int, int>>, SegmentId>
      by_ends_;
};

void expect_same_routes(const std::vector<Route>& got,
                        const std::vector<Route>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].origin, want[i].origin);
    EXPECT_EQ(got[i].destination, want[i].destination);
    EXPECT_EQ(got[i].segments, want[i].segments);
  }
}

// Two generators are in the same state iff their next draws agree; the
// copies leave the callers' generators where they are.
void expect_same_state(Rng got, Rng want) {
  for (int draw = 0; draw < 4; ++draw) ASSERT_EQ(got(), want());
}

TEST(GridMap, RouteChoicesDrawLikeTheSetReference) {
  // 120x2 routes run up to 122 steps, so move keys span two words, and
  // with at most two y moves two routes often differ only past step 64.
  // On 1x6 every pair is straight or a 1xn box, with n+1 <= 7 paths; on
  // 2x2 no pair has more than 6: with k = 8 each call stops once it holds
  // every path, and expect_same_state pins that no draw follows the last.
  const std::pair<int, int> grids[] = {{1, 1}, {8, 1},   {20, 20},
                                       {120, 2}, {1, 6}, {2, 2}};
  std::uint64_t seed = 0;
  for (const auto& [w, h] : grids) {
    const GridMap map(w, h);
    const SetReference ref(map);
    Rng mask_rng(1000 + static_cast<std::uint64_t>(w * 100 + h));
    auto mask = [&](double density) {
      std::vector<char> m(map.segment_count());
      for (char& c : m) c = mask_rng.chance(density) ? 1 : 0;
      return m;
    };
    const std::vector<char> masks[] = {
        {}, mask(0.3), mask(0.8), std::vector<char>(map.segment_count(), 1)};

    Rng ends(++seed);
    for (int trial = 0; trial < 50; ++trial) {
      const Intersection from = map.random_intersection(ends);
      const Intersection to = map.random_intersection(ends);
      Rng rng(++seed);
      Rng ref_rng(seed);
      expect_same_routes({map.random_monotone_route(from, to, rng)},
                         {ref.random_monotone_route(from, to, ref_rng)});
      expect_same_state(rng, ref_rng);
    }

    for (std::size_t m = 0; m < std::size(masks); ++m) {
      for (const std::size_t k : {0, 1, 5, 8}) {
        for (const int min_distance : {0, 1, 4, w + h + 5}) {
          SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h) +
                       " mask " + std::to_string(m) + " k " +
                       std::to_string(k) + " min_distance " +
                       std::to_string(min_distance));
          Rng rng(++seed);
          Rng ref_rng(seed);
          // Far pairs on the larger grids take many rejection draws.
          const int calls = min_distance > w + h ? 2 : 20;
          for (int call = 0; call < calls; ++call) {
            expect_same_routes(
                map.random_route_choices(k, min_distance, rng, masks[m]),
                ref.random_route_choices(k, min_distance, ref_rng, masks[m]));
            expect_same_state(rng, ref_rng);
          }
        }
      }
    }
  }
}

// make_route_query's loop before the shared route-query draw, on the set
// reference: up to 40 route-choices calls under the mask, keeping the
// first call with the most routes, then one unmasked call if none kept any.
std::vector<Route> reference_route_query(const SetReference& ref,
                                         std::size_t k, int min_distance,
                                         Rng& rng,
                                         const std::vector<char>& covered) {
  std::vector<Route> chosen;
  for (int attempt = 0; attempt < 40; ++attempt) {
    auto routes = ref.random_route_choices(k, min_distance, rng, covered);
    if (routes.size() > chosen.size()) chosen = std::move(routes);
    if (chosen.size() >= k) break;
  }
  if (chosen.empty()) chosen = ref.random_route_choices(k, min_distance, rng, {});
  return chosen;
}

// The routes of a route-query draw, as for_each_segment lists them.
std::vector<Route> drawn_routes(const GridMap& map, const RouteKeys& keys) {
  std::vector<Route> routes(keys.kept, Route{keys.from, keys.to, {}});
  for (std::size_t i = 0; i < keys.kept; ++i) {
    map.for_each_segment(keys, i, [&](SegmentId seg) {
      routes[i].segments.push_back(seg);
    });
    EXPECT_EQ(routes[i].segments.size(), keys.steps());
  }
  return routes;
}

TEST(GridMap, RouteQueryDrawsLikeTheReferenceLoop) {
  // The paper's setup (8x8, 30 sensors) and city's (20x20, 160 sensors),
  // each with coverage radius 1.25 as in the route scenario, and 8x8 with
  // 4 sensors, where most queries spend all 40 draws and a few fall back
  // to the unmasked draw. k = 5 and min distance 4 are the scenario's
  // defaults; k = 8 makes most pairs run out of distinct paths; k = 0
  // still makes one masked and one unmasked draw. One RouteQueryDraw
  // serves every query.
  struct Setup {
    int grid;
    std::size_t sensors;
  };
  for (const Setup setup : {Setup{8, 30}, Setup{20, 160}, Setup{8, 4}}) {
    const GridMap map(setup.grid, setup.grid);
    const SetReference ref(map);
    ViabilityProcess truth(
        std::vector<SegmentDynamics>(
            map.segment_count(), SegmentDynamics{0.75, SimTime::seconds(900)}),
        Rng(15));
    SensorFieldConfig field_cfg;
    field_cfg.sensor_count = setup.sensors;
    field_cfg.coverage_radius = 1.25;
    Rng field_rng(static_cast<std::uint64_t>(setup.grid));
    const SensorField field(map, truth, field_cfg, field_rng);
    std::vector<char> covered(map.segment_count(), 0);
    for (SegmentId seg : field.covered_segments()) covered[seg.value()] = 1;

    for (const std::size_t k : {0, 5, 8}) {
      SCOPED_TRACE(std::to_string(setup.grid) + "x" +
                   std::to_string(setup.grid) + " k " + std::to_string(k));
      Rng rng(static_cast<std::uint64_t>(setup.grid) * 100 + k);
      Rng ref_rng = rng;
      RouteQueryDraw draw;
      for (int query = 0; query < 1000; ++query) {
        map.draw_route_query(k, 4, rng, covered, draw);
        expect_same_routes(drawn_routes(map, draw.best),
                           reference_route_query(ref, k, 4, ref_rng, covered));
        expect_same_state(rng, ref_rng);
      }
    }
  }
}

TEST(GridMap, RouteChoicesRejectsShortCoverageMask) {
  const GridMap map(4, 4);
  Rng rng(6);
  const std::vector<char> short_mask(map.segment_count() - 1, 1);
  EXPECT_DEATH((void)map.random_route_choices(3, 2, rng, short_mask),
               "one entry per segment");
}

}  // namespace
}  // namespace dde::world
