// The Sec. VII evaluation scenario: post-disaster route assessment on a
// Manhattan grid.
//
// Builds the full stack — grid world, viability dynamics, sensor field,
// network topology of Athena nodes co-located with the sensors, directory —
// streams the route-finding query workload (five candidate routes per
// query, three concurrent queries per node), runs the simulation, and
// reports resolution ratio, bandwidth consumption and, from each query as
// it retires, per-class totals and a ground-truth audit.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "athena/config.h"
#include "athena/metrics.h"
#include "athena/node.h"
#include "common/sim_time.h"
#include "fault/chaos.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "net/network.h"

namespace dde::scenario {

/// Everything configurable about one experiment run. Defaults reproduce the
/// paper's setup (8×8 grid, ~30 nodes, 1 Mbps links, 100 KB–1 MB objects,
/// 5 candidate routes per query, 3 queries per node).
struct ScenarioConfig {
  // World.
  int grid_width = 8;
  int grid_height = 8;
  double p_viable = 0.75;          ///< stationary segment viability
  SimTime mean_holding = SimTime::seconds(900);

  // Sensors / objects.
  std::size_t node_count = 30;
  double coverage_radius = 1.25;   ///< field-of-view (grid units)
  std::uint64_t min_object_bytes = 100 * 1024;
  std::uint64_t max_object_bytes = 1024 * 1024;
  double fast_ratio = 0.4;         ///< Fig. 2 sweep variable
  SimTime slow_validity = SimTime::seconds(600);
  SimTime fast_validity = SimTime::seconds(30);
  /// Per-reading sensor correctness (Sec. IV-B noisy data); 1 = noiseless.
  double sensor_reliability = 1.0;
  /// Node-side corroboration confidence threshold; 0 disables.
  double corroboration_confidence = 0.0;

  // Network.
  double link_bandwidth_bps = 1e6;  ///< 1 Mbps node-to-node
  SimTime link_latency = SimTime::millis(2);
  double link_radius = 2.2;        ///< connect nodes within this distance
  /// Failure injection: independent per-packet loss probability.
  double packet_loss = 0.0;

  /// Overload protection at the network layer: caps on each link's waiting
  /// queue (0 = unbounded, the default — bit-for-bit the seed behaviour).
  /// Overfull queues evict lowest-priority-newest packets; see
  /// net::QueueLimits. Node-side protection knobs (shedding, admission
  /// control, prefetch throttling) live in AthenaConfig and are reachable
  /// through `config_override`.
  std::size_t link_queue_max_packets = 0;
  std::uint64_t link_queue_max_bytes = 0;

  /// Structured failure injection (src/fault): link outages, node crashes,
  /// and bursty loss, realized against the built topology from a dedicated
  /// RNG stream derived from `seed`. An empty spec changes nothing — the
  /// run is bit-for-bit identical to one without a fault subsystem.
  fault::FaultSpec faults;
  /// Sustained seeded churn (crash/restart cycles, link flaps), realized
  /// from its own RNG stream and merged into the fault plan. When
  /// non-empty, its restart policy governs the whole merged plan. An empty
  /// spec changes nothing.
  fault::ChaosSpec chaos;
  /// Run the crash-recovery protocol (restart hellos + marker purge and
  /// re-issue) after non-ghost restarts. Applied to node configs unless
  /// `config_override` is set; inert under the default ghost policy.
  bool fault_crash_recovery = true;
  /// Cap on the interest-aggregation marker lease (AthenaConfig::
  /// recovery_lease); zero = off, the default. Applied unless
  /// `config_override` is set.
  SimTime recovery_lease = SimTime::zero();
  /// After the horizon, keep running until the DES drains completely (all
  /// leases expired, every pending event executed) — the chaos harness's
  /// quiesce point. Off by default: legacy runs stop at the horizon.
  bool run_to_quiescence = false;

  // Workload.
  std::size_t queries_per_node = 3;
  std::size_t routes_per_query = 5;
  int min_route_distance = 4;
  SimTime query_deadline = SimTime::seconds(240);

  /// How query issue times are generated.
  enum class Arrival {
    kConcurrent,  ///< all near t=0, spread over issue_jitter (paper setup)
    kPoisson,     ///< per node, exponential inter-arrivals
    kPeriodic,    ///< per node, fixed period with small jitter
  };
  Arrival arrival = Arrival::kConcurrent;
  SimTime issue_jitter = SimTime::seconds(1);  ///< kConcurrent spread
  /// kPoisson mean inter-arrival / kPeriodic period (per node).
  SimTime mean_interarrival = SimTime::seconds(60);

  SimTime horizon = SimTime::seconds(300);

  /// Fraction of queries marked critical (Sec. V-C): their traffic is
  /// assigned `critical_priority` at every link queue.
  double critical_fraction = 0.0;
  int critical_priority = 1;

  /// Mid-run disruption (Sec. II-A): at `disruption_at` an "aftershock"
  /// permanently blocks `disruption_fraction` of the covered segments.
  /// Zero disables. If `broadcast_invalidation` is set, node 0 floods an
  /// Invalidation notice for the affected labels at the same instant;
  /// otherwise stale caches keep answering until natural expiry.
  SimTime disruption_at = SimTime::zero();
  double disruption_fraction = 0.15;
  bool broadcast_invalidation = true;

  // Scheme under test.
  athena::Scheme scheme = athena::Scheme::kLvfl;
  /// If set, overrides the scheme preset entirely (for ablations).
  std::optional<athena::AthenaConfig> config_override;

  /// Optional structured trace sink (src/obs), attached to the network and
  /// every node for the whole run. Observation only: a run with a sink is
  /// bit-for-bit identical to one without. Must outlive the call.
  obs::TraceSink* trace_sink = nullptr;

  std::uint64_t seed = 1;
};

/// Running totals over a run's queries, folded as each one retires, so
/// nothing here grows with the horizon. A query still active at collection
/// counts as issued and not decided.
struct QueryTotals {
  /// One priority class: critical (priority > 0) or normal.
  struct Class {
    std::uint64_t issued = 0;
    std::uint64_t decided = 0;
    /// Shed as deadline-infeasible or rejected by admission control.
    std::uint64_t shed = 0;
    /// Dropped to failed_crash by a non-ghost crash of its node.
    std::uint64_t crashed = 0;
    double latency_s = 0.0;  ///< issue-to-decision time, summed

    [[nodiscard]] double resolution_ratio() const noexcept {
      return issued == 0 ? 0.0
                         : static_cast<double>(decided) /
                               static_cast<double>(issued);
    }
    [[nodiscard]] double mean_latency_s() const noexcept {
      return decided == 0 ? 0.0 : latency_s / static_cast<double>(decided);
    }
    bool operator==(const Class&) const = default;
  };
  Class normal;
  Class critical;
  /// Decided queries that chose a route, audited against ground truth at
  /// their decision time: `correct` counts those whose chosen route was
  /// fully viable. The `_before` pair counts the decisions made before
  /// `disruption_at`. `declined` counts the decided queries that found no
  /// viable route (not audited).
  std::uint64_t audited = 0;
  std::uint64_t declined = 0;
  std::uint64_t correct = 0;
  std::uint64_t audited_before = 0;
  std::uint64_t correct_before = 0;
  /// Order-sensitive digest, in retirement order, of each retired query's
  /// priority, outcome, latency, issue and finish time and audit result.
  fault::ReplayDigest digest;

  bool operator==(const QueryTotals&) const = default;
};

/// Outcome of one run.
struct ScenarioResult {
  athena::AthenaMetrics metrics;
  net::TrafficStats traffic;
  /// What the fault injector did (all-zero when `faults` was empty).
  fault::FaultStats faults;
  std::uint64_t events = 0;
  /// Queries issued so far (admission rejects included).
  std::uint64_t queries = 0;
  QueryTotals totals;

  /// Residual protocol state per node at collection time. At a quiesce
  /// point (run_to_quiescence) a correct run drains every count to zero —
  /// feed these to fault::check_quiesce_invariants.
  std::vector<fault::NodeStateProbe> probes;

  /// Share of audited decisions whose committed route was viable; empty
  /// when nothing was audited, since such a run has no accuracy to report.
  [[nodiscard]] std::optional<double> decision_accuracy() const noexcept {
    if (totals.audited == 0) return std::nullopt;
    return static_cast<double>(totals.correct) /
           static_cast<double>(totals.audited);
  }

  [[nodiscard]] double resolution_ratio() const noexcept {
    return metrics.resolution_ratio();
  }
  [[nodiscard]] double total_megabytes() const noexcept {
    return static_cast<double>(traffic.bytes) / 1e6;
  }
};

/// Build and run one scenario to completion (or the horizon).
[[nodiscard]] ScenarioResult run_route_scenario(const ScenarioConfig& config);

class ScenarioSpec;

/// Build a ScenarioConfig from a declarative spec (the "route" plugin's
/// schema; see docs/SCENARIOS.md). Unknown keys abort via DDE_CHECK.
/// Typed-only knobs (the fault burst parameters, chaos.spare_node0 and
/// chaos.burst, config_override, trace_sink, seed) are not part of the
/// spec schema and keep their defaults; the scalar fault_*/chaos_* knobs
/// are spec-reachable.
[[nodiscard]] ScenarioConfig route_config_from_spec(const ScenarioSpec& spec);

}  // namespace dde::scenario
