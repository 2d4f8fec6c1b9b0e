// Corroboration planning: which noisy sources to query, and how many times,
// so the resulting evidence can decide a label at a required confidence
// (Sec. IV-B).
//
// Each candidate source contributes log(r/(1−r)) of log-odds per (agreeing)
// observation at some retrieval cost. Reaching confidence τ from a neutral
// prior needs total log-odds ≥ log(τ/(1−τ)), so planning is a covering
// knapsack: pick observations minimizing cost subject to a log-odds budget.
// The greedy density rule (information per unit cost) is measured against
// an exact branch-and-bound reference by bench/fusion_corroboration. The
// protocol does not call either planner yet: athena::AthenaNode
// corroborates by rotating through a label's sources one request at a time
// (next_corroborating_source).
#pragma once

#include <cstddef>
#include <vector>

#include "common/ids.h"

namespace dde::fusion {

/// One candidate observation source for a label.
struct NoisySource {
  SourceId id;
  double reliability = 0.8;  ///< P(reading correct), in (0.5, 1)
  double cost = 1.0;         ///< retrieval cost per observation
  int max_observations = 1;  ///< distinct observations obtainable
};

/// A corroboration plan: how many observations to take from each source.
struct CorroborationPlan {
  /// counts[i] = observations planned from sources[i].
  std::vector<int> counts;
  double cost = 0.0;
  double log_odds = 0.0;  ///< total assuming observations agree
  bool achievable = false;  ///< log-odds budget met
};

/// Log-odds needed to decide at `threshold` from `prior` (worst-case sign).
[[nodiscard]] double required_log_odds(double threshold, double prior = 0.5);

/// Greedy plan: repeatedly take an observation from the source with the
/// highest log-odds-per-cost density that still has capacity.
[[nodiscard]] CorroborationPlan greedy_corroboration(
    const std::vector<NoisySource>& sources, double threshold,
    double prior = 0.5);

/// Exact minimum-cost plan by branch and bound (reference; total capacity
/// ≤ ~30 observations).
[[nodiscard]] CorroborationPlan exact_corroboration(
    const std::vector<NoisySource>& sources, double threshold,
    double prior = 0.5);

}  // namespace dde::fusion
