// Ground-truth physical dynamics: per-segment viability as a two-state
// continuous-time Markov process.
//
// This is the "physical model" the paper's optimization consumes: each
// segment alternates between viable and blocked with exponential holding
// times. The stationary viability probability feeds the short-circuit
// ordering (success probability p), and the holding-time scale determines
// how long a sensor observation stays meaningful (validity interval).
#pragma once

#include <cstddef>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/sim_time.h"

namespace dde::world {

/// Dynamics parameters for one segment.
struct SegmentDynamics {
  /// Stationary probability the segment is viable.
  double p_viable = 0.7;
  /// Mean time between state changes (average holding time).
  SimTime mean_holding = SimTime::seconds(600);
};

/// Lazily-sampled trajectories of segment viability.
///
/// Trajectories are generated on demand and memoized, so querying the state
/// at any past time is consistent: viable_at(s, t) always returns the same
/// answer for the same (s, t).
class ViabilityProcess {
 public:
  /// One process per segment; `params[i]` governs segment with id i.
  ViabilityProcess(std::vector<SegmentDynamics> params, Rng rng);

  [[nodiscard]] std::size_t segment_count() const noexcept { return tracks_.size(); }

  /// Ground-truth viability of `segment` at time `t` (t >= 0).
  [[nodiscard]] bool viable_at(SegmentId segment, SimTime t);

  /// The parameters for `segment`.
  [[nodiscard]] const SegmentDynamics& params(SegmentId segment) const;

  /// Time of the first state change strictly after `t` for `segment`.
  /// (Considers the natural Markov process only, not disruptions.)
  [[nodiscard]] SimTime next_change_after(SegmentId segment, SimTime t);

  /// External disruption (Sec. II-A: "a large earthquake … may invalidate
  /// such past observations"): from `at` onward the segment is forcibly
  /// blocked, regardless of its natural process. Irreversible.
  void block_after(SegmentId segment, SimTime at);

 private:
  struct Track {
    SegmentDynamics params;
    bool initial_state = true;
    // flip_times_[k] = time of the (k+1)-th state change; strictly increasing.
    std::vector<SimTime> flips;
    Rng rng;
    /// Forced-blocked from this time on (max() = no disruption).
    SimTime blocked_after = SimTime::max();
  };

  /// Extend the memoized trajectory of `track` to cover time `t`.
  void extend(Track& track, SimTime t);

  [[nodiscard]] Track& track(SegmentId segment);

  std::vector<Track> tracks_;
};

}  // namespace dde::world
