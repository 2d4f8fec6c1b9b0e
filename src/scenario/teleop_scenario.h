// Vehicular teleoperation over lossy multi-homed cellular links
// (Sec. IV-A: "consider a teleoperated vehicle ... critical decisions must
// be made within tight deadlines from data streamed over unreliable
// links").
//
// Remote vehicles drive GPS-like waypoint trajectories on the city grid
// (world::GridMobility). Each vehicle is multi-homed: it holds parallel
// cellular uplinks to K carrier gateways, every one an independently
// bursty Gilbert–Elliott loss channel whose quality also depends on which
// grid cell the vehicle currently occupies (coverage map). A teleoperation
// center issues critical situation-assessment decisions with tight
// deadlines; the Athena nodes replicate the critical request/reply traffic
// across the parallel links (multipath_redundancy) and every receiver keeps
// only the first copy of each replica group, so one clean copy suffices.
#pragma once

#include <cstdint>
#include <vector>

#include "athena/config.h"
#include "athena/metrics.h"
#include "common/sim_time.h"
#include "fault/chaos.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"

namespace dde::scenario {

struct TeleopScenarioConfig {
  // City grid the vehicles drive on.
  int grid_width = 8;
  int grid_height = 8;

  // Fleet and carriers.
  std::size_t vehicle_count = 6;
  std::size_t carrier_count = 3;   ///< cellular gateways (multi-homing degree)
  double vehicle_speed = 4.0;      ///< grid units per minute

  // Cellular links (vehicle ↔ gateway) and the wired core (gateway ↔ op).
  double cell_bandwidth_bps = 2e6;
  SimTime cell_latency = SimTime::millis(40);
  double core_bandwidth_bps = 5e7;
  SimTime core_latency = SimTime::millis(5);

  /// Average per-packet loss on a cellular link while in coverage, realized
  /// as a Gilbert–Elliott chain with `mean_burst_len` expected bad-state
  /// run length (1 ≈ independent loss; larger = burstier).
  double cell_loss = 0.05;
  double mean_burst_len = 8.0;
  /// Probability a carrier covers a given grid cell (static per run). Out
  /// of coverage, the link's loss is `gap_loss` instead of `cell_loss`.
  double coverage = 0.85;
  double gap_loss = 0.9;

  // Teleoperation workload: the operator assesses every vehicle each
  // period; the assessment is a critical decision over that vehicle's
  // current camera evidence with a tight deadline.
  SimTime decision_period = SimTime::seconds(15);
  SimTime query_deadline = SimTime::seconds(5);
  SimTime object_validity = SimTime::seconds(4);  ///< forces a fresh fetch
  std::uint64_t min_object_bytes = 20 * 1024;
  std::uint64_t max_object_bytes = 60 * 1024;
  int critical_priority = 1;

  /// How many parallel copies of critical traffic to send (1 = no
  /// redundancy; K > 1 fans out across K−1 alternate next hops).
  std::size_t multipath_redundancy = 2;

  /// Structured failure injection (src/fault): gateway/vehicle crashes and
  /// core-link outages composed with mobility + multipath redundancy. The
  /// burst channel is NOT honored here — this scenario owns the loss model
  /// (the per-carrier cellular Gilbert–Elliott chains above); a configured
  /// fault/chaos burst is clamped off with a log. Node 0 (the operator) is
  /// never crashed. Empty specs change nothing.
  fault::FaultSpec faults;
  /// Sustained seeded churn merged into the fault plan (see `faults`).
  /// When non-empty, its restart policy governs the whole merged plan.
  fault::ChaosSpec chaos;
  /// Run the crash-recovery protocol after non-ghost restarts.
  bool fault_crash_recovery = true;
  /// Cap on the interest-aggregation marker lease (zero = off).
  SimTime recovery_lease = SimTime::zero();

  SimTime horizon = SimTime::seconds(600);
  athena::Scheme scheme = athena::Scheme::kLvfl;
  std::uint64_t seed = 1;
};

struct TeleopScenarioResult {
  athena::AthenaMetrics metrics;
  /// What the fault injector did (all-zero when faults/chaos were empty).
  fault::FaultStats faults;
  std::uint64_t queries_issued = 0;   ///< operator decisions launched
  std::uint64_t deadline_hits = 0;    ///< resolved within the deadline
  std::uint64_t events = 0;           ///< simulator events executed
  std::uint64_t bytes_sent = 0;       ///< network bytes (incl. replicas)
  std::uint64_t replica_copies = 0;      ///< redundant copies transmitted
  std::uint64_t replica_duplicates = 0;  ///< copies suppressed by dedup

  [[nodiscard]] double deadline_hit_rate() const noexcept {
    return queries_issued == 0
               ? 0.0
               : static_cast<double>(deadline_hits) /
                     static_cast<double>(queries_issued);
  }
};

/// Run the teleoperation scenario to the horizon.
[[nodiscard]] TeleopScenarioResult run_teleop_scenario(
    const TeleopScenarioConfig& config);

}  // namespace dde::scenario
