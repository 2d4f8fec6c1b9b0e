#include "fault/chaos.h"

#include <algorithm>

#include "common/contracts.h"

namespace dde::fault {
namespace {

/// Append one subject's Poisson on/off process to `plan` over the spec
/// window: exponential up-times at `rate_per_min`, uniform down-times in
/// [min_down, max_down]. `add` schedules one outage (down_at, up_at).
template <typename AddFn>
void churn_process(const ChaosSpec& spec, double rate_per_min,
                   SimTime min_down, SimTime max_down, Rng& rng, AddFn add) {
  const double mean_up_s = 60.0 / rate_per_min;
  SimTime t = spec.window_start +
              SimTime::seconds(rng.exponential(mean_up_s));
  while (t < spec.window_end) {
    const SimTime down = SimTime::seconds(
        rng.uniform(min_down.to_seconds(), max_down.to_seconds()));
    const SimTime up_at = t + std::max(down, SimTime::millis(1));
    add(t, up_at);
    // Next failure begins an exponential up-time after the repair.
    t = up_at + SimTime::seconds(rng.exponential(mean_up_s));
  }
}

}  // namespace

FaultPlan realize_chaos(const ChaosSpec& spec, const net::Topology& topo,
                        Rng& rng) {
  FaultPlan plan;
  plan.burst = spec.burst;
  plan.restart_policy = spec.restart_policy;
  if (spec.empty() || spec.window_end <= spec.window_start) return plan;

  SimTime min_down = spec.min_downtime;
  SimTime max_down = spec.max_downtime;
  DDE_CLAMP_OR(min_down <= max_down, max_down = min_down,
               "realize_chaos: min_downtime > max_downtime; clamped");
  SimTime min_flap = spec.min_flap;
  SimTime max_flap = spec.max_flap;
  DDE_CLAMP_OR(min_flap <= max_flap, max_flap = min_flap,
               "realize_chaos: min_flap > max_flap; clamped");

  // Node churn, node-id order (deterministic given rng state).
  if (spec.crashes_per_node_min > 0.0) {
    const std::size_t first = spec.spare_node0 ? 1 : 0;
    for (std::size_t n = first; n < topo.node_count(); ++n) {
      churn_process(spec, spec.crashes_per_node_min, min_down, max_down, rng,
                    [&](SimTime at, SimTime up) {
                      plan.add_node_crash(NodeId{n}, at, up);
                    });
    }
  }

  // Link flaps over undirected pairs (canonical from < to), both directed
  // halves down/up together — same pairing convention as FaultSpec.
  if (spec.flaps_per_link_min > 0.0) {
    for (const net::Link& l : topo.links()) {
      if (l.from.value() >= l.to.value()) continue;
      const auto back = topo.link_between(l.to, l.from);
      churn_process(spec, spec.flaps_per_link_min, min_flap, max_flap, rng,
                    [&](SimTime at, SimTime up) {
                      plan.add_link_outage(l.id, at, up);
                      if (back) plan.add_link_outage(*back, at, up);
                    });
    }
  }
  return plan;
}

ChaosInvariantReport check_quiesce_invariants(
    const std::vector<NodeStateProbe>& probes) {
  ChaosInvariantReport report;
  auto flag = [&](const NodeStateProbe& p, const char* what,
                  std::uint64_t count) {
    if (count == 0) return;
    report.violations.push_back("node " + std::to_string(p.node) + ": " +
                                std::to_string(count) + " " + what +
                                " at quiescence");
  };
  for (const NodeStateProbe& p : probes) {
    flag(p, "non-terminal queries", p.active_queries);
    flag(p, "interest-table entries", p.interest_entries);
    flag(p, "forwarded (aggregation) markers", p.forwarded_entries);
    flag(p, "dedup entries", p.dedup_entries);
  }
  return report;
}

}  // namespace dde::fault
