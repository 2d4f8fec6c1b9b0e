// Global experiment counters shared by all Athena nodes in one run.
#pragma once

#include <cstdint>
#include <type_traits>

namespace dde::athena {

/// Aggregated over every node of a run. Byte counters count each hop a
/// message crosses (total network bandwidth consumption, the Fig. 3 metric,
/// broken down by message kind). Every field is listed once more, with
/// its published name, in for_each_field below.
struct AthenaMetrics {
  // Query outcomes.
  std::uint64_t queries_issued = 0;
  std::uint64_t queries_resolved = 0;  ///< decision reached by the deadline
  std::uint64_t queries_failed = 0;    ///< deadline passed unresolved
  double total_resolution_latency_s = 0.0;  ///< over resolved queries

  // Per-hop bytes by message kind.
  std::uint64_t object_bytes = 0;   ///< foreground object replies
  std::uint64_t push_bytes = 0;     ///< background prefetch pushes
  std::uint64_t request_bytes = 0;
  std::uint64_t announce_bytes = 0;
  std::uint64_t label_bytes = 0;

  // Request accounting.
  std::uint64_t object_requests = 0;   ///< origin-issued object requests
  std::uint64_t object_reply_hops = 0; ///< hop-sends of object replies

  // Mechanism counters.
  std::uint64_t sensor_samples = 0;
  std::uint64_t object_cache_hits = 0;   ///< requests served from a cache
  std::uint64_t label_cache_hits = 0;    ///< requests served by cached labels
  std::uint64_t stale_arrivals = 0;      ///< objects expired in transit
  std::uint64_t refetches = 0;           ///< repeat requests by one query
  std::uint64_t prefetch_pushes = 0;
  std::uint64_t interest_aggregations = 0;  ///< duplicate upstreams avoided

  // Overload-protection counters (all zero unless the knobs are enabled).
  std::uint64_t queries_shed = 0;      ///< early aborts: deadline provably
                                       ///< infeasible (shed_infeasible)
  std::uint64_t queries_rejected = 0;  ///< admission-control rejections of
                                       ///< low-priority queries at issue
  std::uint64_t prefetch_throttled = 0;  ///< pump deferrals while the next
                                         ///< hop queue sat above watermark
  std::uint64_t queue_drops = 0;  ///< bounded-queue evictions (mirrors
                                  ///< TrafficStats::queue_drops)

  // Multipath-redundancy counters (zero unless multipath_redundancy > 1).
  std::uint64_t replica_copies = 0;      ///< redundant copies transmitted
  std::uint64_t replica_duplicates = 0;  ///< copies suppressed by dedup

  // Recovery counters (fault subsystem, src/fault).
  std::uint64_t retries = 0;     ///< request watchdog timeouts → re-issues
  std::uint64_t failovers = 0;   ///< labels re-designated to an alternate
                                 ///< source after retry exhaustion
  std::uint64_t link_down_drops = 0;  ///< packets lost to link/node outages
                                      ///< (mirrors TrafficStats)
  std::uint64_t reroutes = 0;    ///< route recomputations after topology
                                 ///< changes (from fault::FaultStats)

  // Crash-recovery counters (restart semantics; all zero under the default
  // "ghost" restart policy, which never invokes the crash/restart hooks).
  std::uint64_t queries_failed_crash = 0;  ///< in-flight local queries
                                           ///< dropped when their node
                                           ///< crashed (terminal outcome,
                                           ///< distinct from queries_failed)
  std::uint64_t node_restarts = 0;        ///< non-ghost restarts processed
  std::uint64_t recovery_hellos = 0;      ///< restart hellos processed by
                                          ///< neighbors
  std::uint64_t recovery_marker_purges = 0;  ///< aggregation markers purged
                                             ///< because they routed through
                                             ///< a freshly restarted node
  std::uint64_t recovery_reissues = 0;    ///< upstream interests re-issued
                                          ///< for live downstream entries
  double total_recovery_lag_s = 0.0;      ///< Σ restart → hello-processed lag
  std::uint64_t control_bytes = 0;        ///< recovery control traffic

  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    return object_bytes + push_bytes + request_bytes + announce_bytes +
           label_bytes + control_bytes;
  }
  /// Mean restart → neighbor-hello-processed lag: how long the network took
  /// to learn about a restart (the recovery_time metric of the chaos bench).
  [[nodiscard]] double mean_recovery_time_s() const noexcept {
    return recovery_hellos == 0
               ? 0.0
               : total_recovery_lag_s / static_cast<double>(recovery_hellos);
  }
  [[nodiscard]] double resolution_ratio() const noexcept {
    return queries_issued == 0
               ? 0.0
               : static_cast<double>(queries_resolved) /
                     static_cast<double>(queries_issued);
  }
  [[nodiscard]] double mean_latency_s() const noexcept {
    return queries_resolved == 0
               ? 0.0
               : total_resolution_latency_s /
                     static_cast<double>(queries_resolved);
  }
  bool operator==(const AthenaMetrics&) const = default;
};

/// Calls f(name, field) for every field of `m`, in declaration order; the
/// name is the field's published name (athena.<name>).
template <typename M, typename F>
  requires std::is_same_v<std::remove_const_t<M>, AthenaMetrics>
constexpr void for_each_field(M& m, F&& f) {
  f("queries_issued", m.queries_issued);
  f("queries_resolved", m.queries_resolved);
  f("queries_failed", m.queries_failed);
  f("total_resolution_latency_s", m.total_resolution_latency_s);
  f("object_bytes", m.object_bytes);
  f("push_bytes", m.push_bytes);
  f("request_bytes", m.request_bytes);
  f("announce_bytes", m.announce_bytes);
  f("label_bytes", m.label_bytes);
  f("object_requests", m.object_requests);
  f("object_reply_hops", m.object_reply_hops);
  f("sensor_samples", m.sensor_samples);
  f("object_cache_hits", m.object_cache_hits);
  f("label_cache_hits", m.label_cache_hits);
  f("stale_arrivals", m.stale_arrivals);
  f("refetches", m.refetches);
  f("prefetch_pushes", m.prefetch_pushes);
  f("interest_aggregations", m.interest_aggregations);
  f("queries_shed", m.queries_shed);
  f("queries_rejected", m.queries_rejected);
  f("prefetch_throttled", m.prefetch_throttled);
  f("queue_drops", m.queue_drops);
  f("replica_copies", m.replica_copies);
  f("replica_duplicates", m.replica_duplicates);
  f("retries", m.retries);
  f("failovers", m.failovers);
  f("link_down_drops", m.link_down_drops);
  f("reroutes", m.reroutes);
  f("queries_failed_crash", m.queries_failed_crash);
  f("node_restarts", m.node_restarts);
  f("recovery_hellos", m.recovery_hellos);
  f("recovery_marker_purges", m.recovery_marker_purges);
  f("recovery_reissues", m.recovery_reissues);
  f("total_recovery_lag_s", m.total_recovery_lag_s);
  f("control_bytes", m.control_bytes);
}

}  // namespace dde::athena
