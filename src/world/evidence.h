// Evidence (data) objects and sensors.
//
// A sensor, once sampled, produces an evidence object: a snapshot of the
// viability of the segments in its field of view, taken at a specific time,
// with a validity interval after which it is stale (Sec. II-B, IV).
// Object payloads (the "pictures") are represented by their size only; the
// resource-management layer never looks inside them.
//
// A captured object never changes, so it is made once and shared: every
// cache, reply and hop along its path holds the same ObjectRef.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"

namespace dde::world {

/// Object dynamics category (the Fig. 2 sweep variable).
enum class ChangeRate : std::uint8_t {
  kSlow = 0,  ///< long validity interval
  kFast = 1,  ///< short validity interval
};

/// Static description of a deployed sensor (e.g. a roadside camera).
struct SensorInfo {
  SourceId id;
  double x = 0.0;               ///< position on the grid
  double y = 0.0;
  std::vector<SegmentId> covers;  ///< segments in the field of view
  std::uint64_t object_bytes = 0;  ///< size of each produced evidence object
  SimTime validity;             ///< freshness interval of produced objects
  ChangeRate rate = ChangeRate::kSlow;
  /// Probability each per-segment reading is correct (1.0 = noiseless).
  double reliability = 1.0;
};

/// One covered segment's viability as an object recorded it.
struct Reading {
  SegmentId segment;
  bool viable = false;
};

/// One captured evidence object: a snapshot of covered-segment viability.
struct EvidenceObject {
  ObjectId id;
  SourceId source;
  std::uint64_t bytes = 0;
  SimTime captured_at;      ///< sample time
  SimTime validity;         ///< fresh while now < captured_at + validity
  double reliability = 1.0; ///< per-reading correctness probability

  /// Ground-truth viability of each covered segment at captured_at, one
  /// entry per segment, ascending by segment. An annotator reads these to
  /// produce labels.
  std::vector<Reading> readings;

  /// The reading of `segment`, or nullptr if the object does not cover it.
  [[nodiscard]] const Reading* reading(SegmentId segment) const noexcept {
    const auto it = std::lower_bound(
        readings.begin(), readings.end(), segment,
        [](const Reading& r, SegmentId s) { return r.segment < s; });
    return it != readings.end() && it->segment == segment ? &*it : nullptr;
  }

  [[nodiscard]] SimTime expires_at() const noexcept {
    return captured_at + validity;
  }
  [[nodiscard]] bool fresh_at(SimTime t) const noexcept {
    return t < expires_at();
  }
};

/// A captured object, shared immutably by everything that holds it.
using ObjectRef = std::shared_ptr<const EvidenceObject>;

}  // namespace dde::world
