#include "world/dynamics.h"

#include <algorithm>
#include <stdexcept>

#include "common/contracts.h"

namespace dde::world {
namespace {

/// Holding time in a state, exponential with mean chosen so the chain's
/// stationary distribution matches p_viable while the average holding time
/// stays mean_holding: viable states last 2*p*H, blocked states 2*(1-p)*H.
SimTime holding_time(const SegmentDynamics& p, bool viable, Rng& rng) {
  const double share = viable ? p.p_viable : (1.0 - p.p_viable);
  const double mean = std::max(1.0, 2.0 * share * p.mean_holding.to_seconds());
  return SimTime::seconds(rng.exponential(mean));
}

}  // namespace

ViabilityProcess::ViabilityProcess(std::vector<SegmentDynamics> params, Rng rng) {
  tracks_.reserve(params.size());
  for (auto& p : params) {
    Track t;
    t.params = p;
    t.rng = rng.fork();
    t.initial_state = t.rng.chance(p.p_viable);
    tracks_.push_back(std::move(t));
  }
}

ViabilityProcess::Track& ViabilityProcess::track(SegmentId segment) {
  if (!segment.valid() || segment.value() >= tracks_.size()) {
    throw std::out_of_range("ViabilityProcess: unknown segment id");
  }
  return tracks_[segment.value()];
}

const SegmentDynamics& ViabilityProcess::params(SegmentId segment) const {
  if (!segment.valid() || segment.value() >= tracks_.size()) {
    throw std::out_of_range("ViabilityProcess: unknown segment id");
  }
  return tracks_[segment.value()].params;
}

void ViabilityProcess::extend(Track& t, SimTime until) {
  SimTime last = t.flips.empty() ? SimTime::zero() : t.flips.back();
  while (last <= until) {
    const bool state_now = t.initial_state == (t.flips.size() % 2 == 0);
    last += holding_time(t.params, state_now, t.rng);
    t.flips.push_back(last);
  }
}

bool ViabilityProcess::viable_at(SegmentId segment, SimTime at) {
  // Negative times sit before every flip: clamp to the initial state rather
  // than reading an inconsistent prefix of the flip history.
  DDE_CLAMP_OR(at >= SimTime::zero(), at = SimTime::zero(),
               "viable_at: negative time; clamped to t=0");
  Track& t = track(segment);
  if (at >= t.blocked_after) return false;  // disruption dominates
  extend(t, at);
  // Number of flips at or before `at`.
  const auto flipped = static_cast<std::size_t>(
      std::upper_bound(t.flips.begin(), t.flips.end(), at) - t.flips.begin());
  return t.initial_state == (flipped % 2 == 0);
}

void ViabilityProcess::block_after(SegmentId segment, SimTime at) {
  Track& t = track(segment);
  t.blocked_after = std::min(t.blocked_after, at);
}

SimTime ViabilityProcess::next_change_after(SegmentId segment, SimTime at) {
  Track& t = track(segment);
  extend(t, at);
  auto it = std::upper_bound(t.flips.begin(), t.flips.end(), at);
  DDE_CHECK(it != t.flips.end(),
            "next_change_after: extend() must leave a flip beyond `at`");
  return *it;
}

}  // namespace dde::world
