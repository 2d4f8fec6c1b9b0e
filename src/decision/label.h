// Labels: named Boolean variables over world state (Sec. II-B).
//
// The system maintains (label, type, value) tuples; values are tri-state.
// A resolved label value carries provenance: when it was evaluated, how long
// it stays valid, which annotator signed it, and which evidence objects it
// was computed from — the trust metadata of Sec. III-B.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/arena.h"
#include "common/ids.h"
#include "common/sim_time.h"
#include "common/tristate.h"

namespace dde::decision {

/// A resolved label value with provenance (the paper's signed-label record).
/// Copying one allocates nothing unless it lists more than one evidence
/// object (corroboration). `value` comes last so it packs into the tail
/// padding: 64 bytes in all, one per label-cache slot.
struct LabelValue {
  LabelId label;
  SimTime evaluated_at;               ///< when the annotation was made
  SimTime validity;                   ///< freshness interval of the value
  AnnotatorId annotator;              ///< who evaluated (signature)
  SmallVec<ObjectId, 1> evidence;     ///< objects used, ascending
  Tristate value = Tristate::kUnknown;

  [[nodiscard]] SimTime expires_at() const noexcept {
    return evaluated_at + validity;
  }
  [[nodiscard]] bool fresh_at(SimTime t) const noexcept {
    return value != Tristate::kUnknown && t < expires_at();
  }
};

/// Index of the first element of ascending `labels` not below `label`
/// (std::lower_bound's answer). The halving steps select with conditional
/// moves rather than branches, so a lookup in a few dozen ids costs no
/// mispredicted branches.
[[nodiscard]] inline std::size_t lower_index(std::span<const LabelId> labels,
                                             LabelId label) noexcept {
  if (labels.empty()) return 0;
  const LabelId* base = labels.data();
  for (std::size_t n = labels.size(); n > 1;) {
    const std::size_t half = n / 2;
    base = base[half] < label ? base + half : base;
    n -= half;
  }
  return static_cast<std::size_t>(base - labels.data()) +
         (*base < label ? 1 : 0);
}

/// A (partial) assignment of values to labels, with freshness handling.
///
/// Lookups are time-aware: a stored value that has expired reads back as
/// unknown, which is exactly how staleness re-opens a decision.
///
/// Flat layout: labels sorted ascending with their records alongside, so a
/// lookup is a binary search over a few dozen contiguous ids. A set() or
/// invalidate() invalidates pointers returned by record().
///
/// version() counts mutations: every set(), invalidate() and clear() bumps
/// it. Between two reads of an unchanged version, only the passage of time
/// can change a lookup, and expiry only ever turns a value unknown.
class Assignment {
 public:
  /// Record a label value (overwrites any previous value).
  void set(LabelValue v) {
    ++version_;
    const std::size_t i = position(v.label);
    if (i < labels_.size() && labels_[i] == v.label) {
      values_[i] = std::move(v);
      return;
    }
    labels_.insert(labels_.begin() + static_cast<std::ptrdiff_t>(i), v.label);
    values_.insert(values_.begin() + static_cast<std::ptrdiff_t>(i),
                   std::move(v));
  }

  /// The value of `label` if known and still fresh at `now`.
  [[nodiscard]] Tristate value_at(LabelId label, SimTime now) const {
    const LabelValue* v = record(label);
    return v != nullptr && v->fresh_at(now) ? v->value : Tristate::kUnknown;
  }

  /// The stored record for `label`, fresh or not (nullptr if never set).
  [[nodiscard]] const LabelValue* record(LabelId label) const {
    const std::size_t i = position(label);
    return i < labels_.size() && labels_[i] == label ? &values_[i] : nullptr;
  }

  /// Earliest expiry among values that are fresh at `now`
  /// (SimTime::max() if none).
  [[nodiscard]] SimTime earliest_expiry(SimTime now) const {
    SimTime best = SimTime::max();
    for (const LabelValue& v : values_) {
      if (v.fresh_at(now)) best = std::min(best, v.expires_at());
    }
    return best;
  }

  /// Discard any knowledge of `label` (Sec. II-A invalidation: an external
  /// event voided the observation). Subsequent lookups return unknown.
  void invalidate(LabelId label) {
    ++version_;
    const std::size_t i = position(label);
    if (i == labels_.size() || labels_[i] != label) return;
    labels_.erase(labels_.begin() + static_cast<std::ptrdiff_t>(i));
    values_.erase(values_.begin() + static_cast<std::ptrdiff_t>(i));
  }

  /// Number of mutations so far (see the class comment).
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  [[nodiscard]] std::size_t size() const noexcept { return labels_.size(); }
  void clear() {
    ++version_;
    labels_.clear();
    values_.clear();
  }

 private:
  [[nodiscard]] std::size_t position(LabelId label) const {
    return lower_index(labels_, label);
  }

  std::vector<LabelId> labels_;     ///< ascending
  std::vector<LabelValue> values_;  ///< values_[i] is labels_[i]'s record
  std::uint64_t version_ = 0;       ///< mutations so far
};

}  // namespace dde::decision
