// GPS-like vehicle mobility on the Manhattan grid: waypoint walks over the
// intersection lattice at constant speed.
//
// Each traveler drives from intersection to intersection; at every
// intersection it draws the next waypoint (a random adjacent intersection,
// never an immediate U-turn unless at a dead end) from its own forked RNG
// stream. Trajectories are generated lazily and memoized — like
// world::ViabilityProcess — so position_at(v, t) always returns the same
// answer for the same (v, t) regardless of query order, keeping runs
// bit-for-bit deterministic under any event interleaving.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "world/grid_map.h"

namespace dde::world {

/// A continuous position on the grid (in grid units; intersections sit at
/// integer coordinates).
struct Position {
  double x = 0.0;
  double y = 0.0;
};

/// A grid cell index, i.e. which unit square of the map a position falls
/// in: 0 <= x < width, 0 <= y < height (positions on the far border clamp
/// to the last cell).
struct GridCell {
  int x = 0;
  int y = 0;
  friend bool operator==(const GridCell&, const GridCell&) = default;
};

/// Lazily-sampled constant-speed waypoint trajectories for a fleet of
/// travelers.
class GridMobility {
 public:
  /// `traveler_count` travelers on `map`, all moving at `speed` grid units
  /// per second. Start intersections and every subsequent waypoint are
  /// drawn from per-traveler streams forked off `rng` at construction.
  /// Preconditions: speed > 0. The map must outlive the mobility model.
  GridMobility(const GridMap& map, std::size_t traveler_count, double speed,
               Rng& rng);

  [[nodiscard]] double speed() const noexcept { return speed_; }

  /// Ground-truth position of `traveler` at time `t` (t >= 0), linearly
  /// interpolated between its waypoints.
  [[nodiscard]] Position position_at(std::size_t traveler, SimTime t);

  /// The grid cell containing position_at(traveler, t).
  [[nodiscard]] GridCell cell_at(std::size_t traveler, SimTime t);

 private:
  struct Track {
    Rng rng;
    /// waypoints[k] reached at hop_times[k]; both strictly growing, one
    /// lattice edge apart. waypoints[0] at t = 0.
    std::vector<Intersection> waypoints;
    std::vector<SimTime> hop_times;
  };

  /// Extend the memoized waypoint list of `track` to cover time `t`.
  void extend(Track& track, SimTime t);

  const GridMap& map_;
  double speed_;
  SimTime hop_duration_;  ///< time to traverse one lattice edge
  std::vector<Track> tracks_;
};

}  // namespace dde::world
