#include "scenario/plugin.h"

#include <cmath>
#include <numeric>
#include <string>
#include <utility>

#include "common/rng.h"

namespace dde::scenario {

std::vector<NodeId> Stack::connect_sensors(const world::SensorField& field,
                                           double radius, double bandwidth_bps,
                                           SimTime latency) {
  const auto& sensors = field.sensors();
  const std::size_t n = sensors.size();
  std::vector<NodeId> hosts;
  hosts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) hosts.push_back(topo.add_node());

  // Union-find for connectivity.
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  auto find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };

  // Distance of every pair i < j, row by row: the radius pass computes it
  // and each component join rescans it. The buffer holds n(n-1)/2 doubles
  // while this function runs (~100 KB at 160 nodes).
  std::vector<double> pair_dist;
  pair_dist.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dx = sensors[i].x - sensors[j].x;
      const double dy = sensors[i].y - sensors[j].y;
      pair_dist.push_back(std::sqrt(dx * dx + dy * dy));
      if (pair_dist.back() <= radius) {
        topo.add_link(NodeId{i}, NodeId{j}, bandwidth_bps, latency);
        parent[find(i)] = find(j);
      }
    }
  }
  // Join disconnected components by their closest cross pair.
  std::vector<std::size_t> root(n);
  for (;;) {
    for (std::size_t i = 0; i < n; ++i) root[i] = find(i);
    double best = 0.0;
    std::size_t bi = n;
    std::size_t bj = n;
    std::size_t k = 0;  // index of pair (i, j) in pair_dist
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j, ++k) {
        if (root[i] == root[j]) continue;
        if (bi == n || pair_dist[k] < best) {
          best = pair_dist[k];
          bi = i;
          bj = j;
        }
      }
    }
    if (bi == n) break;  // connected
    topo.add_link(NodeId{bi}, NodeId{bj}, bandwidth_bps, latency);
    parent[find(bi)] = find(bj);
  }
  topo.compute_routes();
  return hosts;
}

net::Network& Stack::open_network() { return network.emplace(sim, topo); }

void Stack::inject_faults(const fault::FaultSpec& faults,
                          const fault::ChaosSpec& chaos, std::uint64_t seed,
                          bool owns_loss_model) {
  if (faults.empty() && chaos.empty()) return;
  // Chaos churn draws from a stream of its own: adding churn to a faulted
  // run leaves the FaultSpec schedule itself bit-for-bit unchanged.
  Rng fault_rng(seed * 6271 + 17);
  fault::FaultPlan plan = faults.realize(topo, fault_rng);
  if (!chaos.empty()) {
    Rng chaos_rng(seed * 15485863 + 19);
    fault::FaultPlan churn = fault::realize_chaos(chaos, topo, chaos_rng);
    plan.events.insert(plan.events.end(), churn.events.begin(),
                       churn.events.end());
    if (churn.burst.enabled()) plan.burst = churn.burst;
    plan.restart_policy = churn.restart_policy;
  }
  if (owns_loss_model) {
    DDE_CLAMP_OR(!plan.burst.enabled(),
                 plan.burst = fault::GilbertElliottParams{},
                 "the scenario owns the loss model; the fault burst channel "
                 "is disabled");
  }
  injector.emplace(sim, topo, *network, std::move(plan),
                   seed * 104729 + 7);
}

void Stack::add_nodes(world::SensorField& field, std::vector<NodeId> hosts,
                      const world::ViabilityProcess& truth, std::size_t labels,
                      const athena::AthenaConfig& config,
                      obs::TraceSink* trace_sink) {
  std::vector<double> p_true(labels);
  for (std::size_t s = 0; s < labels; ++s) {
    p_true[s] = truth.params(SegmentId{s}).p_viable;
  }
  directory.emplace(topo, field, std::move(hosts), std::move(p_true));

  nodes.reserve(topo.node_count());
  for (std::size_t i = 0; i < topo.node_count(); ++i) {
    nodes.push_back(std::make_unique<athena::AthenaNode>(
        NodeId{i}, *network, *directory, field, config, metrics));
    if (trace_sink != nullptr) nodes.back()->set_trace_sink(trace_sink);
  }

  // Crash-faithful restarts. Under the default ghost policy the nodes'
  // handlers return at once, so wiring them changes no trajectory.
  if (injector) {
    const fault::RestartPolicy policy = injector->plan().restart_policy;
    injector->set_node_hook([this, policy](NodeId node, bool up) {
      if (node.value() >= nodes.size()) return;
      if (up) {
        nodes[node.value()]->on_restart(policy);
      } else {
        nodes[node.value()]->on_crash(policy);
      }
    });
  }
}

athena::AthenaMetrics Stack::collect_metrics() const {
  athena::AthenaMetrics m = metrics;
  m.link_down_drops = network->stats().link_down_drops;
  m.queue_drops = network->stats().queue_drops;
  if (injector) m.reroutes = injector->stats().reroutes;
  return m;
}

fault::FaultStats Stack::fault_stats() const {
  return injector ? injector->stats() : fault::FaultStats{};
}

void bind_fault_knobs(SpecBinder& b, fault::FaultSpec& faults,
                      fault::ChaosSpec& chaos, bool& crash_recovery,
                      SimTime& recovery_lease) {
  // The burst channel, chaos.spare_node0 and chaos.burst stay typed-only.
  b.bind("fault_link_outage_fraction", &faults.link_outage_fraction);
  b.bind_seconds("fault_outage_at_s", &faults.outage_at);
  b.bind_seconds("fault_outage_duration_s", &faults.outage_duration);
  b.bind("fault_crash_fraction", &faults.node_crash_fraction);
  b.bind_seconds("fault_crash_at_s", &faults.crash_at);
  b.bind_seconds("fault_crash_duration_s", &faults.crash_duration);
  b.bind_enum(
      "fault_restart_policy",
      [&faults] {
        return std::string(fault::to_string(faults.restart_policy));
      },
      [&faults](const std::string& v) {
        return fault::parse_restart_policy(v, &faults.restart_policy);
      });
  b.bind("fault_crash_recovery", &crash_recovery);
  b.bind_seconds("fault_recovery_lease_s", &recovery_lease);
  b.bind_seconds("chaos_window_start_s", &chaos.window_start);
  b.bind_seconds("chaos_window_end_s", &chaos.window_end);
  b.bind("chaos_crashes_per_node_min", &chaos.crashes_per_node_min);
  b.bind_seconds("chaos_min_downtime_s", &chaos.min_downtime);
  b.bind_seconds("chaos_max_downtime_s", &chaos.max_downtime);
  b.bind("chaos_flaps_per_link_min", &chaos.flaps_per_link_min);
  b.bind_seconds("chaos_min_flap_s", &chaos.min_flap);
  b.bind_seconds("chaos_max_flap_s", &chaos.max_flap);
  b.bind_enum(
      "chaos_restart_policy",
      [&chaos] { return std::string(fault::to_string(chaos.restart_policy)); },
      [&chaos](const std::string& v) {
        return fault::parse_restart_policy(v, &chaos.restart_policy);
      });
}

}  // namespace dde::scenario
