#include "world/grid_map.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/contracts.h"

namespace dde::world {

GridMap::GridMap(int width, int height) : width_(width), height_(height) {
  DDE_CHECK(width >= 1 && height >= 1,
            "GridMap: dimensions must be positive");
  for (int y = 0; y <= height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      segments_.push_back(
          Segment{horizontal_id(x, y), {x, y}, {x + 1, y}, /*horizontal=*/true});
    }
  }
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x <= width_; ++x) {
      segments_.push_back(
          Segment{vertical_id(x, y), {x, y}, {x, y + 1}, /*horizontal=*/false});
    }
  }
}

const Segment& GridMap::segment(SegmentId id) const {
  if (!id.valid() || id.value() >= segments_.size()) {
    throw std::out_of_range("GridMap::segment: unknown segment id");
  }
  return segments_[id.value()];
}

std::optional<SegmentId> GridMap::segment_between(Intersection a,
                                                  Intersection b) const {
  if (!in_range(a) || !in_range(b)) return std::nullopt;
  if (a.y == b.y && std::abs(a.x - b.x) == 1) {
    return horizontal_id(std::min(a.x, b.x), a.y);
  }
  if (a.x == b.x && std::abs(a.y - b.y) == 1) {
    return vertical_id(a.x, std::min(a.y, b.y));
  }
  return std::nullopt;
}

std::vector<SegmentId> GridMap::segments_near(double x, double y,
                                              double radius) const {
  std::vector<SegmentId> out;
  for (const auto& seg : segments_) {
    if (std::abs(seg.mid_x() - x) <= radius && std::abs(seg.mid_y() - y) <= radius) {
      out.push_back(seg.id);
    }
  }
  return out;
}

Intersection GridMap::random_intersection(Rng& rng) const {
  return Intersection{
      static_cast<int>(rng.below(static_cast<std::uint64_t>(width_ + 1))),
      static_cast<int>(rng.below(static_cast<std::uint64_t>(height_ + 1)))};
}

namespace {

int steps_between(Intersection from, Intersection to) {
  return std::abs(to.x - from.x) + std::abs(to.y - from.y);
}

std::size_t move_words(Intersection from, Intersection to) {
  return static_cast<std::size_t>(steps_between(from, to) + 63) / 64;
}

// The step rule every route draw shares, for a route with `rx` moves left
// in x and `ry` in y (both > 0): the step moves in x with probability
// rx / (rx+ry). Returns 1 for an x move and 0 for a y move, and counts the
// move off.
std::uint64_t step_moves_x(int& rx, int& ry, Rng& rng) {
  const auto x = static_cast<std::uint64_t>(
      rng.below(static_cast<std::uint64_t>(rx + ry)) <
      static_cast<std::uint64_t>(rx));
  rx -= static_cast<int>(x);
  ry -= static_cast<int>(1 - x);
  return x;
}

// Draws one monotone route's moves into `moves` (move_words() words): bit i
// is set iff step i moves in x. Once either direction is used up the rest
// is straight and draws nothing.
void draw_moves(Intersection from, Intersection to, Rng& rng,
                std::uint64_t* moves) {
  int rx = std::abs(to.x - from.x);
  int ry = std::abs(to.y - from.y);
  std::fill_n(moves, move_words(from, to), std::uint64_t{0});
  int step = 0;
  for (; rx > 0 && ry > 0; ++step) {
    moves[step / 64] |= step_moves_x(rx, ry, rng) << (step % 64);
  }
  for (; rx > 0; ++step, --rx) {
    moves[step / 64] |= std::uint64_t{1} << (step % 64);
  }
}

// min(C(rx+ry, rx), k): how many distinct monotone routes a draw of k can
// find between endpoints rx and ry apart.
std::size_t distinct_paths(int rx, int ry, std::size_t k) {
  const auto n = static_cast<std::uint64_t>(rx + ry);
  const auto r = static_cast<std::uint64_t>(std::min(rx, ry));
  // C(n-r+i, i) grows with i, so the product can stop once it reaches k.
  std::uint64_t c = 1;
  for (std::uint64_t i = 1; i <= r && c < k; ++i) c = c * (n - r + i) / i;
  return static_cast<std::size_t>(std::min<std::uint64_t>(c, k));
}

}  // namespace

Route GridMap::materialize(Intersection from, Intersection to,
                           const std::uint64_t* moves) const {
  Route route{from, to, {}};
  route.segments.reserve(static_cast<std::size_t>(steps_between(from, to)));
  walk(from, to, moves, [&](SegmentId seg) {
    route.segments.push_back(seg);
    return true;
  });
  return route;
}

Route GridMap::random_monotone_route(Intersection from, Intersection to,
                                     Rng& rng) const {
  DDE_CHECK(in_range(from) && in_range(to),
            "random_monotone_route: endpoints must lie on the grid");
  std::vector<std::uint64_t> moves(move_words(from, to));
  draw_moves(from, to, rng, moves.data());
  return materialize(from, to, moves.data());
}

std::vector<Route> GridMap::random_route_choices(
    std::size_t k, int min_distance, Rng& rng,
    const std::vector<char>& covered) const {
  RouteKeys keys;
  draw_route_choices(k, min_distance, rng, covered, keys);
  std::vector<Route> routes;
  routes.reserve(keys.kept);
  for (std::size_t i = 0; i < keys.kept; ++i) {
    routes.push_back(
        materialize(keys.from, keys.to, keys.keys.data() + i * keys.words));
  }
  return routes;
}

void GridMap::draw_route_query(std::size_t k, int min_distance, Rng& rng,
                               const std::vector<char>& covered,
                               RouteQueryDraw& out) const {
  out.best.kept = 0;
  for (int attempt = 0; attempt < 40; ++attempt) {
    draw_route_choices(k, min_distance, rng, covered, out.attempt);
    if (out.attempt.kept > out.best.kept) std::swap(out.attempt, out.best);
    if (out.best.kept >= k) break;
  }
  // Fallback: accept partially covered routes rather than an empty query.
  if (out.best.kept == 0) {
    draw_route_choices(k, min_distance, rng, {}, out.best);
  }
}

void GridMap::draw_route_choices(std::size_t k, int min_distance, Rng& rng,
                                 const std::vector<char>& covered,
                                 RouteKeys& out) const {
  DDE_CHECK(covered.empty() || covered.size() == segments_.size(),
            "random_route_choices: coverage mask needs one entry per segment");
  DDE_CLAMP_OR(min_distance >= 1, min_distance = 1,
               "random_route_choices: min_distance < 1; clamped to 1");
  // An unsatisfiable distance would spin the rejection loop forever: the
  // farthest pair on a width x height grid is width+height apart.
  DDE_CLAMP_OR(min_distance <= width_ + height_,
               min_distance = width_ + height_,
               "random_route_choices: min_distance exceeds grid diameter; "
               "clamped to width+height");
  Intersection from{};
  Intersection to{};
  // Rejection-sample an origin/destination pair that is far enough apart.
  do {
    from = random_intersection(rng);
    to = random_intersection(rng);
  } while (steps_between(from, to) < min_distance);

  // Distinct monotone paths can be scarce (a straight-line pair has exactly
  // one): stop once every path of the pair is drawn, and cap attempts so
  // we terminate. Slots [0, distinct) of `out.keys` hold the distinct
  // routes so far, the `kept` covered ones first; each draw lands in slot
  // `distinct` and stays only if no earlier slot holds the same moves.
  const int rx = std::abs(to.x - from.x);
  const int ry = std::abs(to.y - from.y);
  const std::size_t words = move_words(from, to);
  out.from = from;
  out.to = to;
  out.words = words;
  out.kept = 0;
  out.keys.resize(k * words);
  std::uint64_t* const keys = out.keys.data();
  const std::size_t paths = distinct_paths(rx, ry, k);
  std::size_t distinct = 0;
  const std::size_t max_attempts = 20 * k + 20;
  for (std::size_t attempt = 0; attempt < max_attempts && distinct < paths;
       ++attempt) {
    std::uint64_t* moves = keys + distinct * words;
    draw_moves(from, to, rng, moves);
    bool seen = false;
    for (std::size_t j = 0; j < distinct && !seen; ++j) {
      seen = std::equal(moves, moves + words, keys + j * words);
    }
    if (seen) continue;
    if (covered.empty() || walk(from, to, moves, [&](SegmentId seg) {
          return covered[seg.value()] != 0;
        })) {
      std::swap_ranges(moves, moves + words, keys + out.kept * words);
      ++out.kept;
    }
    ++distinct;
  }
}

}  // namespace dde::world
