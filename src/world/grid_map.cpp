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

// Draws one monotone route's moves into `moves` (move_words() words):
// the one step rule both route draws share.
void draw_moves(Intersection from, Intersection to, Rng& rng,
                std::uint64_t* moves) {
  int remaining_x = std::abs(to.x - from.x);
  int remaining_y = std::abs(to.y - from.y);
  std::fill_n(moves, move_words(from, to), std::uint64_t{0});
  int step = 0;
  auto set_move_x = [&] {
    moves[step / 64] |= std::uint64_t{1} << (step % 64);
  };
  // Each step moves in x with probability remaining_x / remaining. Once
  // either direction is used up the rest is straight and draws nothing.
  for (; remaining_x > 0 && remaining_y > 0; ++step) {
    if (rng.below(static_cast<std::uint64_t>(remaining_x + remaining_y)) <
        static_cast<std::uint64_t>(remaining_x)) {
      set_move_x();
      --remaining_x;
    } else {
      --remaining_y;
    }
  }
  for (; remaining_x > 0; ++step, --remaining_x) set_move_x();
}

}  // namespace

template <typename Visit>
bool GridMap::walk(Intersection from, Intersection to,
                   const std::uint64_t* moves, Visit visit) const {
  const int dx = to.x > from.x ? 1 : -1;
  const int dy = to.y > from.y ? 1 : -1;
  const int steps = steps_between(from, to);
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
  // one); cap attempts so we terminate. `drawn` holds the moves of the
  // distinct routes so far; each draw lands in the next free slot and
  // stays there only if no earlier slot holds the same moves.
  const std::size_t words = move_words(from, to);
  std::vector<std::uint64_t> drawn(k * words);
  std::vector<Route> routes;
  std::size_t distinct = 0;
  const std::size_t max_attempts = 20 * k + 20;
  for (std::size_t attempt = 0; attempt < max_attempts && distinct < k;
       ++attempt) {
    std::uint64_t* moves = drawn.data() + distinct * words;
    draw_moves(from, to, rng, moves);
    bool seen = false;
    for (std::size_t j = 0; j < distinct && !seen; ++j) {
      seen = std::equal(moves, moves + words, drawn.data() + j * words);
    }
    if (seen) continue;
    ++distinct;
    if (covered.empty() || walk(from, to, moves, [&](SegmentId seg) {
          return covered[seg.value()] != 0;
        })) {
      routes.push_back(materialize(from, to, moves));
    }
  }
  return routes;
}

}  // namespace dde::world
