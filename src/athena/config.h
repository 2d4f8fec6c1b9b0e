// Athena node configuration and the retrieval schemes of Sec. VII.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string_view>

#include "common/sim_time.h"
#include "decision/planner.h"

namespace dde::athena {

/// The five retrieval schemes evaluated in the paper (Sec. VII).
enum class Scheme {
  kCmp,   ///< comprehensive retrieval: all relevant objects, no ordering
  kSlt,   ///< + source selection (set cover over needed predicates)
  kLcf,   ///< + sequential lowest-cost-first retrieval
  kLvf,   ///< decision-driven: variational longest-validity-first
  kLvfl,  ///< lvf + label sharing
};

[[nodiscard]] constexpr std::string_view to_string(Scheme s) noexcept {
  switch (s) {
    case Scheme::kCmp: return "cmp";
    case Scheme::kSlt: return "slt";
    case Scheme::kLcf: return "lcf";
    case Scheme::kLvf: return "lvf";
    case Scheme::kLvfl: return "lvfl";
  }
  return "?";
}

/// Store the scheme that `to_string` spells `name` in `*out` and return
/// true; return false, leaving `*out` alone, for any other name.
[[nodiscard]] constexpr bool parse_scheme(std::string_view name,
                                          Scheme* out) noexcept {
  for (Scheme s : {Scheme::kCmp, Scheme::kSlt, Scheme::kLcf, Scheme::kLvf,
                   Scheme::kLvfl}) {
    if (to_string(s) == name) {
      *out = s;
      return true;
    }
  }
  return false;
}

/// Tunable knobs of an Athena node. `scheme` picks the retrieval scheme;
/// the rest defaults to the Sec. VII experiment values.
struct AthenaConfig {
  // --- retrieval scheme ------------------------------------------------
  Scheme scheme = Scheme::kLvfl;

  /// Use set-cover source selection (vs. all covering sources).
  [[nodiscard]] constexpr bool source_selection() const noexcept {
    switch (scheme) {
      case Scheme::kCmp: return false;
      case Scheme::kSlt:
      case Scheme::kLcf:
      case Scheme::kLvf:
      case Scheme::kLvfl: return true;
    }
    return true;
  }
  /// Retrieve sequentially (one outstanding request per query, re-planned
  /// on every arrival) vs. batch (request everything up front).
  [[nodiscard]] constexpr bool sequential() const noexcept {
    switch (scheme) {
      case Scheme::kCmp:
      case Scheme::kSlt: return false;
      case Scheme::kLcf:
      case Scheme::kLvf:
      case Scheme::kLvfl: return true;
    }
    return true;
  }
  /// Ordering policy for the (sequential) retrieval plan.
  [[nodiscard]] constexpr decision::OrderPolicy order() const noexcept {
    switch (scheme) {
      case Scheme::kCmp:
      case Scheme::kSlt: return decision::OrderPolicy::kDeclared;
      case Scheme::kLcf: return decision::OrderPolicy::kCheapestFirst;
      case Scheme::kLvf:
      case Scheme::kLvfl: return decision::OrderPolicy::kVariationalLvf;
    }
    return decision::OrderPolicy::kVariationalLvf;
  }
  /// Share evaluated labels back into the network and accept cached labels.
  [[nodiscard]] constexpr bool label_sharing() const noexcept {
    switch (scheme) {
      case Scheme::kCmp:
      case Scheme::kSlt:
      case Scheme::kLcf:
      case Scheme::kLvf: return false;
      case Scheme::kLvfl: return true;
    }
    return true;
  }

  /// When > 0.5, sensors are treated as noisy (Sec. IV-B): a label value
  /// is only committed once Bayesian corroboration of the observations
  /// reaches this confidence; until then more evidence is retrieved,
  /// rotating across covering sources. 0 disables (single reading decides).
  double corroboration_confidence = 0.0;

  // --- protocol parameters ---------------------------------------------
  /// Announce each query to the origin's neighbors, and push hosted
  /// evidence toward announcing neighbors (Sec. VI-A).
  bool prefetch = true;
  /// Re-issue a request if unanswered for this long. Must exceed the
  /// worst-case multi-hop transfer time of a large object, or timeouts
  /// snowball into duplicate traffic. This also caps the backed-off
  /// per-attempt timeout below.
  SimTime request_timeout = SimTime::seconds(60);
  /// Exponential-backoff factor on the per-request retry timeout: attempt
  /// k to one source waits base·backoff^(k−1), capped at request_timeout.
  /// 1.0 (the default) keeps every attempt at the base timeout — the
  /// pre-fault-subsystem behaviour, preserved so fault-free runs reproduce
  /// seed results bit-for-bit. Fault experiments use 2.0.
  double retry_backoff = 1.0;
  /// After this many unanswered attempts to one source, the query fails
  /// over: the label is re-designated to the next-cheapest covering
  /// source (if any). 0 disables failover (retry the same source forever,
  /// the pre-fault-subsystem behaviour).
  std::uint32_t max_source_attempts = 0;
  std::size_t object_cache_capacity = 64;

  // --- overload protection (Sec. V-C value under saturation) -----------
  // All knobs default to "off" so fault-free runs reproduce seed results
  // bit-for-bit; bench/overload_saturation enables them. Queue caps live
  // at the network layer (net::QueueLimits).
  /// Shed a query early — recorded in AthenaMetrics::queries_shed, not as
  /// a silent deadline failure — once even the quickest possible remaining
  /// retrieval (over every still-needed label and covering source, by the
  /// directory's queue-free latency estimate, a lower bound) can no longer
  /// return before the deadline. The shed query issues nothing further.
  bool shed_infeasible = false;
  /// Admission control: reject a new priority<=0 query outright (recorded
  /// in AthenaMetrics::queries_rejected) when this node already has this
  /// many unresolved local queries. Critical queries are always admitted.
  /// 0 disables.
  std::size_t admission_max_active = 0;
  /// Congestion-adaptive prefetch throttling: hold the prefetch pump while
  /// the next hop's link queue has more than this many waiting packets,
  /// re-checking every 800 ms. 0 disables.
  std::size_t prefetch_watermark = 0;

  // --- multipath redundancy (Sec. V-C criticality over lossy links) -----
  /// Number of parallel copies of critical (priority > 0) requests and the
  /// replies they pull back: the primary next hop plus up to
  /// multipath_redundancy − 1 alternate downhill neighbors, deduplicated
  /// at the receiver. 1 (the default) sends a single copy — bit-for-bit
  /// the pre-multipath behaviour.
  std::size_t multipath_redundancy = 1;

  // --- crash recovery (src/fault restart semantics) ---------------------
  // Both knobs are inert under the default "ghost" restart policy, which
  // never invokes the crash/restart hooks — fault-free runs and legacy
  // fault runs reproduce seed results bit-for-bit.
  /// Run the recovery protocol after a non-ghost restart: the restarted
  /// node sends a one-hop RecoveryHello to each neighbor, and neighbors
  /// purge aggregation markers routed through it, re-issuing live
  /// downstream interests upstream instead of waiting out stale leases.
  bool crash_recovery = true;
  /// Cap on the forwarded (aggregation) marker lease. zero = off: markers
  /// live request_timeout, as always. Fault experiments set a shorter
  /// lease so a marker whose upstream copy died with a crashed hop expires
  /// early and the next downstream retry re-issues through this node even
  /// when the restart hello itself was lost.
  SimTime recovery_lease = SimTime::zero();
};

/// The preset for one of the paper's five schemes.
[[nodiscard]] constexpr AthenaConfig config_for(Scheme scheme) noexcept {
  AthenaConfig c;
  c.scheme = scheme;
  return c;
}

}  // namespace dde::athena
