// Continuous physical variables and threshold predicates (Sec. II-B).
//
// "Continuous variables can be supported as long as actions are predicated
// on some thresholds defined on these variables" — e.g. the decision to
// turn the lights on in a smart room is predicated on an optical sensor
// measurement dropping below a threshold (the `Dim` label).
//
// Each site carries a mean-reverting (Ornstein–Uhlenbeck) process, lazily
// sampled and memoized like the viability process, so queries at any past
// time are consistent. Threshold predicates turn readings into Boolean
// labels, and — per Sec. VIII, where the system "can derive its own models
// of physical phenomena … [to] inform settings of validity intervals" —
// a Monte-Carlo estimator suggests how long such a label stays valid.
#pragma once

#include <cstddef>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/sim_time.h"

namespace dde::world {

/// Ornstein–Uhlenbeck parameters of one site's variable.
struct ScalarDynamics {
  double mean = 0.0;        ///< long-run level μ
  double reversion = 0.1;   ///< pull strength θ (1/s)
  double sigma = 1.0;       ///< volatility σ (per √s)
  double initial = 0.0;     ///< value at t = 0
};

/// Lazily-sampled trajectories of scalar variables, one per site.
class ScalarProcess {
 public:
  /// `step` is the discretization interval of the Euler–Maruyama scheme.
  ScalarProcess(std::vector<ScalarDynamics> params, Rng rng,
                SimTime step = SimTime::seconds(1));

  [[nodiscard]] const ScalarDynamics& params(std::size_t site) const;

  /// Value at time t (t >= 0); repeated queries are consistent.
  [[nodiscard]] double value_at(std::size_t site, SimTime t);

 private:
  struct Track {
    ScalarDynamics params;
    std::vector<double> values;  ///< values[k] = value at k*step
    Rng rng;
  };
  void extend(Track& track, std::size_t steps);

  std::vector<Track> tracks_;
  SimTime step_;
};

/// A Boolean predicate over a continuous reading.
struct ThresholdPredicate {
  double threshold = 0.0;
  bool above = true;  ///< true: label = (value >= threshold)

  [[nodiscard]] bool evaluate(double value) const noexcept {
    return above ? value >= threshold : value < threshold;
  }
};

/// Suggest a validity interval for a threshold label evaluated at `now`:
/// the largest horizon such that, across `paths` Monte-Carlo rollouts of
/// the site's own dynamics, at least `confidence` of them have not crossed
/// the predicate boundary. Rollouts use the process parameters, not its
/// memoized trajectory, so the estimate never peeks at the future.
/// Capped at `max_horizon`.
[[nodiscard]] SimTime estimate_validity(ScalarProcess& process,
                                        std::size_t site, SimTime now,
                                        const ThresholdPredicate& predicate,
                                        double confidence, int paths, Rng rng,
                                        SimTime max_horizon = SimTime::seconds(3600));

}  // namespace dde::world
