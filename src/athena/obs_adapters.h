// Publishing adapters: one stable name per field of the subsystem metric
// structs. The structs (athena::AthenaMetrics, net::TrafficStats,
// cache::CacheStats) stay the zero-overhead hot-path accumulators; at
// report time these adapters copy every field their for_each_field
// visitor yields into a MetricRegistry, under the canonical names listed
// in docs/OBSERVABILITY.md, plus a few derived totals and ratios.
//
// Header-only, and it lives in athena/ (not obs/) on purpose: obs is a
// lower layer in tools/dde_layers and must not include protocol headers,
// while athena already sits above net, cache, and obs. The functions stay
// in namespace dde::obs — they extend the obs publishing surface, and call
// sites name them `obs::publish` regardless of which header provides them.
// Include this from harnesses (benches, tools, tests) that link the
// protocol libraries anyway.
#pragma once

#include <cstddef>
#include <string>
#include <type_traits>

#include "athena/metrics.h"
#include "cache/ttl_cache.h"
#include "net/network.h"
#include "obs/metric_registry.h"

namespace dde::obs {

/// Every field of a stats struct under prefix + its for_each_field name:
/// integer fields as counters, double fields as gauges.
template <typename Stats>
void publish_fields(MetricRegistry& reg, const Stats& s,
                    const std::string& prefix) {
  // Every field is 8 bytes, so a field missing from for_each_field fails
  // here for each struct that is published.
  static_assert(
      [] {
        Stats t;
        std::size_t n = 0;
        for_each_field(t, [&n](const char*, auto&) { ++n; });
        return n;
      }() == sizeof(Stats) / 8,
      "for_each_field must visit every field");
  for_each_field(s, [&](const char* name, const auto& v) {
    if constexpr (std::is_floating_point_v<std::decay_t<decltype(v)>>) {
      reg.gauge(prefix + name) = v;
    } else {
      reg.counter(prefix + name) = v;
    }
  });
}

/// athena.* — the per-run protocol counters (Fig. 2 / Fig. 3 material),
/// plus the derived totals and ratios.
inline void publish(MetricRegistry& reg, const athena::AthenaMetrics& m,
                    const std::string& prefix = "athena.") {
  publish_fields(reg, m, prefix);
  reg.counter(prefix + "total_bytes") = m.total_bytes();
  reg.gauge(prefix + "resolution_ratio") = m.resolution_ratio();
  reg.gauge(prefix + "mean_latency_s") = m.mean_latency_s();
  reg.gauge(prefix + "mean_recovery_time_s") = m.mean_recovery_time_s();
}

/// net.* — aggregate link-layer traffic.
inline void publish(MetricRegistry& reg, const net::TrafficStats& s,
                    const std::string& prefix = "net.") {
  publish_fields(reg, s, prefix);
}

/// cache.<name>.* — one TTL cache's counters (see CacheStats for the
/// field semantics: evictions = capacity pressure only, expired_drops =
/// TTL expiry, refreshes = in-place overwrites).
inline void publish(MetricRegistry& reg, const cache::CacheStats& s,
                    const std::string& prefix) {
  publish_fields(reg, s, prefix);
}

}  // namespace dde::obs
