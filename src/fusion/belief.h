// Bayesian label belief under noisy evidence (Sec. IV-B, "Noisy sensor
// data").
//
// When sensors are noisy, one evidence object is not enough to set a label;
// multiple observations must corroborate it to a required confidence. A
// LabelBelief accumulates observations in log-odds space: an observation
// from a source with reliability r (probability the reading is correct)
// shifts the log-odds of "label is true" by ±log(r/(1−r)).
#pragma once

#include <cmath>

#include "common/tristate.h"

namespace dde::fusion {

/// log(p/(1−p)); p must be in (0, 1).
[[nodiscard]] inline double log_odds(double p) noexcept {
  return std::log(p / (1.0 - p));
}

/// Inverse of log_odds.
[[nodiscard]] inline double from_log_odds(double l) noexcept {
  return 1.0 / (1.0 + std::exp(-l));
}

/// Posterior belief about one Boolean label.
class LabelBelief {
 public:
  /// Starts from the neutral prior P(true) = 0.5.
  LabelBelief() = default;

  /// `prior` = initial P(label is true), in (0, 1).
  explicit LabelBelief(double prior) : log_odds_(log_odds(prior)) {}

  /// Incorporate one observation. `reading` is the observed value;
  /// `reliability` is the probability the observation is correct, in
  /// (0.5, 1) for informative sources. A reliability of exactly 0.5 is a
  /// no-op (uninformative); below 0.5 the reading is evidence for the
  /// opposite value and is weighted accordingly.
  void observe(bool reading, double reliability) {
    const double step = log_odds(reliability);
    log_odds_ += reading ? step : -step;
    ++observations_;
  }

  [[nodiscard]] double p_true() const noexcept { return from_log_odds(log_odds_); }

  /// Confidence in the current maximum-a-posteriori value.
  [[nodiscard]] double confidence() const noexcept {
    const double p = p_true();
    return p >= 0.5 ? p : 1.0 - p;
  }

  /// The MAP value if confidence meets `threshold`, else unknown.
  [[nodiscard]] Tristate decided(double threshold) const noexcept {
    if (confidence() < threshold) return Tristate::kUnknown;
    return p_true() >= 0.5 ? Tristate::kTrue : Tristate::kFalse;
  }

  [[nodiscard]] int observations() const noexcept { return observations_; }

 private:
  double log_odds_ = 0.0;  // log-odds of 0.5
  int observations_ = 0;
};

/// Minimum number of agreeing observations from a source of reliability
/// `r` needed to push a neutral prior past confidence `threshold`.
/// Precondition: 0.5 < r < 1, 0.5 <= threshold < 1.
[[nodiscard]] inline int min_corroborating_observations(double reliability,
                                                        double threshold,
                                                        double prior = 0.5) {
  const double needed = log_odds(threshold);
  const double start = std::abs(log_odds(prior));
  const double step = log_odds(reliability);
  if (start >= needed) return 0;
  return static_cast<int>(std::ceil((needed - start) / step - 1e-12));
}

}  // namespace dde::fusion
