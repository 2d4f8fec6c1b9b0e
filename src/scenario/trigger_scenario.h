// Event-triggered decision-making (Sec. IV-B): "the firing of a motion
// sensor inside a warehouse after hours may trigger a decision task to
// determine the identity of the intruder."
//
// A watch node samples its local motion sensor periodically; when the
// sensor trips (the monitored segment's state flips), it issues an
// identification decision query over the cameras covering the surrounding
// area, with a tight deadline. The scenario measures the *reaction chain*:
// event → detection (bounded by the sampling period) → query resolution.
#pragma once

#include <cstdint>
#include <vector>

#include "athena/config.h"
#include "athena/metrics.h"
#include "common/sim_time.h"

namespace dde::scenario {

struct TriggerScenarioConfig {
  // World/network: a smaller site than the route scenario.
  int grid_width = 5;
  int grid_height = 5;
  std::size_t node_count = 14;
  double coverage_radius = 1.25;
  double link_radius = 2.4;
  double link_bandwidth_bps = 1e6;

  /// The monitored ("motion") segments flip fast; everything else is calm.
  double event_rate_per_hour = 12.0;   ///< mean trigger events per hour
  SimTime watch_period = SimTime::seconds(5);  ///< local sampling period
  SimTime query_deadline = SimTime::seconds(60);
  std::size_t cameras_per_query = 3;   ///< labels the identification needs

  SimTime horizon = SimTime::seconds(3600);
  athena::Scheme scheme = athena::Scheme::kLvfl;
  std::uint64_t seed = 1;
};

struct TriggerScenarioResult {
  athena::AthenaMetrics metrics;
  std::uint64_t events = 0;          ///< trigger events that fired
  std::uint64_t queries_issued = 0;  ///< identification queries launched
  /// Seconds from physical event to decision, per resolved query.
  std::vector<double> reaction_s;
  /// Seconds from physical event to query issue (detection delay).
  std::vector<double> detection_s;

  [[nodiscard]] double resolution_ratio() const noexcept {
    return queries_issued == 0
               ? 0.0
               : static_cast<double>(metrics.queries_resolved) /
                     static_cast<double>(queries_issued);
  }
};

/// Run the warehouse-watch scenario to the horizon.
[[nodiscard]] TriggerScenarioResult run_trigger_scenario(
    const TriggerScenarioConfig& config);

}  // namespace dde::scenario
