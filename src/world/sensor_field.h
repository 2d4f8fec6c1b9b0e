// The deployed sensor field: sensor placement and on-demand sampling.
#pragma once

#include <cstddef>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "world/dynamics.h"
#include "world/evidence.h"
#include "world/grid_map.h"

namespace dde::world {

/// Parameters for deploying a random sensor field over a grid.
struct SensorFieldConfig {
  std::size_t sensor_count = 30;
  double coverage_radius = 0.75;     ///< Chebyshev radius of the field of view
  std::uint64_t min_object_bytes = 100 * 1024;   ///< 100 KB (paper Sec. VII)
  std::uint64_t max_object_bytes = 1024 * 1024;  ///< ~1 MB
  double fast_ratio = 0.4;           ///< fraction of fast-changing sensors
  SimTime slow_validity = SimTime::seconds(300);
  SimTime fast_validity = SimTime::seconds(25);
  /// Per-reading correctness probability of every sensor (Sec. IV-B noisy
  /// data model); 1.0 = noiseless.
  double reliability = 1.0;
};

/// The set of deployed sensors plus the ground-truth process they observe.
///
/// sample() captures a fresh evidence object from a sensor: a snapshot of
/// the current viability of every segment in its field of view.
class SensorField {
 public:
  /// Deploy `config.sensor_count` sensors at random grid positions.
  /// Every sensor covers at least one segment (placement is rejected
  /// otherwise); collectively covering all segments is not guaranteed —
  /// scenario builders should check coverage() if they need it.
  SensorField(const GridMap& map, ViabilityProcess& truth,
              const SensorFieldConfig& config, Rng& rng);

  /// Deploy an explicit list of sensors (ids must be dense from 0).
  /// Used for hand-crafted scenarios and tests.
  SensorField(const GridMap& map, ViabilityProcess& truth,
              std::vector<SensorInfo> sensors);

  [[nodiscard]] const std::vector<SensorInfo>& sensors() const noexcept {
    return sensors_;
  }
  [[nodiscard]] const SensorInfo& sensor(SourceId id) const;

  /// Sensors whose field of view includes `segment`.
  [[nodiscard]] std::vector<SourceId> sensors_covering(SegmentId segment) const;

  /// Segments covered by at least one sensor.
  [[nodiscard]] std::vector<SegmentId> covered_segments() const;

  /// Capture a fresh evidence object from `sensor` at time `now`. If the
  /// sensor's reliability is below 1, each reading is independently flipped
  /// with probability (1 − reliability). A segment listed twice in the
  /// sensor's covers is read (and noise-drawn) each time; its first reading
  /// is kept.
  [[nodiscard]] ObjectRef sample(SourceId sensor, SimTime now);

  /// Number of samples taken so far (across all sensors).
  [[nodiscard]] std::uint64_t total_samples() const noexcept { return samples_; }

 private:
  const GridMap& map_;
  ViabilityProcess& truth_;
  std::vector<SensorInfo> sensors_;
  Rng noise_rng_{0xD0D0CAFEULL};
  std::uint64_t samples_ = 0;
};

}  // namespace dde::world
