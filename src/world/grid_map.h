// Manhattan-grid road network (the Sec. VII scenario world).
//
// Intersections form a (width+1) × (height+1) lattice; road segments are
// the lattice edges. Routes are monotone "staircase" paths between two
// intersections, matching the paper's randomly-selected candidate routes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"

namespace dde::world {

/// An intersection coordinate on the lattice.
struct Intersection {
  int x = 0;
  int y = 0;
  friend bool operator==(const Intersection&, const Intersection&) = default;
};

/// A road segment: an edge between two adjacent intersections.
struct Segment {
  SegmentId id;
  Intersection a;
  Intersection b;
  bool horizontal = false;

  /// Midpoint, used for sensor coverage geometry.
  [[nodiscard]] double mid_x() const noexcept { return (a.x + b.x) / 2.0; }
  [[nodiscard]] double mid_y() const noexcept { return (a.y + b.y) / 2.0; }
};

/// A candidate route: an ordered list of segments joining two intersections.
struct Route {
  Intersection origin;
  Intersection destination;
  std::vector<SegmentId> segments;
};

/// The distinct routes one route-choices draw produced between `from` and
/// `to`, as move keys: `words` words per route, bit i set iff step i moves
/// in x. The `kept` fully covered routes come first, in draw order; the
/// rest of `keys` is working memory. A caller that draws repeatedly reuses
/// one RouteKeys, so `keys` stops allocating once it has grown.
struct RouteKeys {
  Intersection from;
  Intersection to;
  std::size_t words = 0;
  std::size_t kept = 0;
  std::vector<std::uint64_t> keys;

  /// Segments per route: the L1 distance from `from` to `to`.
  [[nodiscard]] std::size_t steps() const noexcept {
    return static_cast<std::size_t>(std::abs(to.x - from.x) +
                                    std::abs(to.y - from.y));
  }
};

/// A route query's draw (GridMap::draw_route_query): `best` holds the
/// chosen routes, `attempt` the call in progress. Both are reused from
/// query to query.
struct RouteQueryDraw {
  RouteKeys best;
  RouteKeys attempt;
};

/// The grid map: geometry only, no dynamics.
class GridMap {
 public:
  /// Build a grid with `width` × `height` cells (so (width+1)*(height+1)
  /// intersections). Preconditions: width >= 1, height >= 1.
  GridMap(int width, int height);

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int height() const noexcept { return height_; }
  [[nodiscard]] std::size_t segment_count() const noexcept { return segments_.size(); }
  [[nodiscard]] const std::vector<Segment>& segments() const noexcept {
    return segments_;
  }
  [[nodiscard]] const Segment& segment(SegmentId id) const;

  /// The segment joining two adjacent intersections, if any.
  [[nodiscard]] std::optional<SegmentId> segment_between(Intersection a,
                                                         Intersection b) const;

  /// Segments whose midpoint lies within Chebyshev distance `radius` of
  /// (x, y) — a sensor's coverage footprint.
  [[nodiscard]] std::vector<SegmentId> segments_near(double x, double y,
                                                     double radius) const;

  /// A uniformly random intersection.
  [[nodiscard]] Intersection random_intersection(Rng& rng) const;

  /// A random monotone (staircase) route from `from` to `to`. If the two
  /// coincide, the route is empty. Each step moves one cell toward the
  /// destination in x or y, chosen at random among the remaining moves.
  [[nodiscard]] Route random_monotone_route(Intersection from, Intersection to,
                                            Rng& rng) const;

  /// Up to `k` distinct random candidate routes between two random
  /// intersections at L1 distance >= `min_distance`: draws monotone routes
  /// until `k` distinct ones, or every distinct path of the pair, have been
  /// drawn, or 20k+20 draws are spent. So it returns fewer than `k` if the
  /// pair admits fewer distinct paths (e.g. a straight line).
  ///
  /// `covered`, if not empty, is a per-segment mask with one entry per
  /// segment (nonzero = covered). The call then returns only the fully
  /// covered routes among the <= k distinct routes it drew, in draw order;
  /// the mask does not change what is drawn.
  [[nodiscard]] std::vector<Route> random_route_choices(
      std::size_t k, int min_distance, Rng& rng,
      const std::vector<char>& covered = {}) const;

  /// A route query's candidates (paper Sec. VII), written to `out.best`:
  /// up to 40 route-choices draws under `covered`, keeping the first draw
  /// with the most fully covered routes and stopping once one keeps `k`.
  /// If none keeps any route, one more draw without the mask decides.
  void draw_route_query(std::size_t k, int min_distance, Rng& rng,
                        const std::vector<char>& covered,
                        RouteQueryDraw& out) const;

  /// Calls `visit(segment)` for the segments of route `i` of `keys`
  /// (i < keys.kept), in order from `keys.from`.
  template <typename Visit>
  void for_each_segment(const RouteKeys& keys, std::size_t i,
                        Visit visit) const {
    walk(keys.from, keys.to, keys.keys.data() + i * keys.words,
         [&](SegmentId seg) {
           visit(seg);
           return true;
         });
  }

 private:
  [[nodiscard]] bool in_range(Intersection p) const noexcept {
    return p.x >= 0 && p.x <= width_ && p.y >= 0 && p.y <= height_;
  }

  // Segment ids follow the construction order: every horizontal segment
  // row by row, then every vertical segment row by row.
  [[nodiscard]] SegmentId horizontal_id(int x, int y) const noexcept {
    return SegmentId{static_cast<std::uint64_t>(y * width_ + x)};
  }
  [[nodiscard]] SegmentId vertical_id(int x, int y) const noexcept {
    return SegmentId{static_cast<std::uint64_t>((height_ + 1) * width_ +
                                                y * (width_ + 1) + x)};
  }

  // The route-choices draw both public draws share: the distinct routes'
  // move keys, fully covered ones first, into `out`.
  void draw_route_choices(std::size_t k, int min_distance, Rng& rng,
                          const std::vector<char>& covered,
                          RouteKeys& out) const;

  // A monotone route between fixed endpoints is identified by its moves:
  // bit i of `moves` (64 steps per word) is set iff step i moves in x.
  // walk() calls `visit(segment)` for the route's segments in order until
  // it returns false, and returns whether every call returned true.
  template <typename Visit>
  bool walk(Intersection from, Intersection to, const std::uint64_t* moves,
            Visit visit) const {
    const int dx = to.x > from.x ? 1 : -1;
    const int dy = to.y > from.y ? 1 : -1;
    const int steps = std::abs(to.x - from.x) + std::abs(to.y - from.y);
    Intersection cur = from;
    for (int step = 0; step < steps; ++step) {
      SegmentId seg;
      if ((moves[step / 64] >> (step % 64)) & 1U) {
        seg = horizontal_id(std::min(cur.x, cur.x + dx), cur.y);
        cur.x += dx;
      } else {
        seg = vertical_id(cur.x, std::min(cur.y, cur.y + dy));
        cur.y += dy;
      }
      if (!visit(seg)) return false;
    }
    return true;
  }
  [[nodiscard]] Route materialize(Intersection from, Intersection to,
                                  const std::uint64_t* moves) const;

  int width_;
  int height_;
  std::vector<Segment> segments_;
};

}  // namespace dde::world
