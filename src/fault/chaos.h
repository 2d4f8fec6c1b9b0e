// Seeded chaos schedules and quiesce-point invariants.
//
// A ChaosSpec describes sustained random churn — node crash/restart
// cycles, link flaps, and a bursty-loss floor — as Poisson processes over
// a time window, instead of FaultSpec's single synchronized outage. It is
// realized into an ordinary FaultPlan against a concrete topology, drawing
// only from the caller's Rng: the same (spec, topology, seed) triple
// always yields the same schedule, so every chaos run replays bit-for-bit.
//
// The second half is the invariant checker the chaos harness runs at the
// quiesce point — after the workload has ended and the DES has drained
// every pending event (all leases, interests, and dedup entries past
// expiry). At quiescence a correct protocol holds:
//
//   1. every issued query reached a terminal outcome (resolved, failed,
//      shed, rejected, or failed_crash) — no QueryState leaks;
//   2. every soft table (interest, forwarded markers, flood dedup) has
//      drained to empty — no entry can outlive its lease, including
//      entries pointing through crashed-and-wiped epochs.
//
// The checker consumes flat per-node probes (counts) so dde_fault never
// links the protocol layer; scenarios fill the probes from their nodes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "fault/fault_plan.h"

namespace dde::fault {

/// Declarative churn description, realized into a FaultPlan.
struct ChaosSpec {
  /// Fault activity window. Crashes/flaps begin in [window_start,
  /// window_end); repairs may land after window_end.
  SimTime window_start = SimTime::zero();
  SimTime window_end = SimTime::zero();

  /// Node churn: each node independently crashes as a Poisson process at
  /// this rate (expected crashes per simulated minute, while up). 0 = off.
  double crashes_per_node_min = 0.0;
  SimTime min_downtime = SimTime::seconds(10);
  SimTime max_downtime = SimTime::seconds(40);
  /// Never crash node 0 (scenario herald/origin role), matching
  /// FaultSpec::realize.
  bool spare_node0 = true;

  /// Link flaps: each undirected link pair independently flaps (both
  /// directions down together) at this rate per simulated minute. 0 = off.
  double flaps_per_link_min = 0.0;
  SimTime min_flap = SimTime::seconds(2);
  SimTime max_flap = SimTime::seconds(15);

  /// Bursty-loss floor on every link for the whole run (identity = off).
  GilbertElliottParams burst;

  /// Restart semantics for the generated node crashes.
  RestartPolicy restart_policy = RestartPolicy::kGhost;

  [[nodiscard]] bool empty() const noexcept {
    return crashes_per_node_min <= 0.0 && flaps_per_link_min <= 0.0 &&
           !burst.enabled();
  }
};

/// Realize `spec` into a concrete schedule. Deterministic given `rng`'s
/// state; an empty spec yields an empty plan (still carrying the policy).
[[nodiscard]] FaultPlan realize_chaos(const ChaosSpec& spec,
                                      const net::Topology& topo, Rng& rng);

/// Flat snapshot of one node's residual protocol state at the quiesce
/// point (filled by the scenario from AthenaNode accessors).
struct NodeStateProbe {
  std::uint64_t node = 0;
  std::uint64_t active_queries = 0;     ///< issued, not yet terminal
  std::uint64_t interest_entries = 0;   ///< interest-table entries held
  std::uint64_t forwarded_entries = 0;  ///< aggregation markers held
  /// Invalidation, replica and ingest dedup entries held.
  std::uint64_t dedup_entries = 0;
};

/// Outcome of a quiesce-point check: human-readable violations, one line
/// per broken invariant per node. Empty = the run quiesced cleanly.
struct ChaosInvariantReport {
  std::vector<std::string> violations;
  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
};

/// Check the quiesce-point invariants over every node's probe (see file
/// header). Pure; safe to call on any probe set including hand-built
/// fixtures.
[[nodiscard]] ChaosInvariantReport check_quiesce_invariants(
    const std::vector<NodeStateProbe>& probes);

/// Order-sensitive FNV-1a fold over 64-bit words: the replay-determinism
/// digest. Two runs of the same seed must produce equal digests over their
/// observable outcomes (metrics, traffic, per-query records); a mismatch
/// means hidden nondeterminism.
class ReplayDigest {
 public:
  void fold(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffULL;
      h_ *= 1099511628211ULL;
    }
  }
  /// Fold a double by bit pattern (exact, not rounded).
  void fold(double v) noexcept {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    __builtin_memcpy(&bits, &v, sizeof bits);
    fold(bits);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }
  bool operator==(const ReplayDigest&) const = default;

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

}  // namespace dde::fault
