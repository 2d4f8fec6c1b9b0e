// What every built-in scenario plugin is made of: the protocol stack it
// runs Athena on (Stack), the fault_*/chaos_* knobs, and the one
// ScenarioRunner implementation (PluginRunner); and the built-in plugins'
// factories. docs/SCENARIOS.md "Writing a plugin" walks through them.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "athena/node.h"
#include "common/contracts.h"
#include "common/sim_time.h"
#include "des/simulator.h"
#include "fault/chaos.h"
#include "fault/fault_injector.h"
#include "net/network.h"
#include "net/topology.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "world/dynamics.h"
#include "world/sensor_field.h"

namespace dde::scenario {

/// Topology, simulator, network, fault injector, directory and Athena nodes
/// of one run, built in phases that every plugin calls in this order:
/// its world; connect_sensors() or its own topology; open_network(), then
/// its loss model, trace sink and queue limits; inject_faults();
/// add_nodes(); its workload and disruption. Event ties follow the order of
/// the schedule_* calls, so this order is part of every pinned trajectory.
/// Members are in dependency order: nodes are torn down before the
/// directory, network and simulator they use. A plugin declares its Stack
/// after the world state the network's callbacks read and before its
/// workload state.
struct Stack {
  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Add one node per sensor of `field` (node i hosts sensor i), link the
  /// sensors within `radius` of each other, join the remaining components
  /// by their closest pair, and compute routes. Returns the hosts.
  std::vector<NodeId> connect_sensors(const world::SensorField& field,
                                      double radius, double bandwidth_bps,
                                      SimTime latency);

  /// Build the network over the finished topology.
  net::Network& open_network();

  /// Realize `faults` and `chaos`, each from its own RNG stream derived
  /// from `seed` (so they never perturb world or workload draws), merge
  /// them and schedule the plan; a non-empty chaos spec's burst and restart
  /// policy govern it. A plugin that `owns_loss_model` has the burst
  /// channel clamped off, since the injector would replace its model.
  /// Empty specs construct nothing.
  void inject_faults(const fault::FaultSpec& faults,
                     const fault::ChaosSpec& chaos, std::uint64_t seed,
                     bool owns_loss_model);

  /// Build the directory (sensor i hosted at `hosts[i]`; each label below
  /// `labels` has its segment's stationary viability in `truth` as prior,
  /// the rest 0.5) and one node per topology node with `trace_sink` (may
  /// be null) attached, and route the injector's crash/restart transitions
  /// into the nodes.
  void add_nodes(world::SensorField& field, std::vector<NodeId> hosts,
                 const world::ViabilityProcess& truth, std::size_t labels,
                 const athena::AthenaConfig& config,
                 obs::TraceSink* trace_sink);

  /// The nodes' metrics with the network's link-down and queue drops and
  /// the injector's reroutes folded in.
  [[nodiscard]] athena::AthenaMetrics collect_metrics() const;
  /// What the injector did (all zero without one).
  [[nodiscard]] fault::FaultStats fault_stats() const;

  net::Topology topo;
  des::Simulator sim;
  std::optional<net::Network> network;
  std::optional<fault::FaultInjector> injector;
  std::optional<athena::Directory> directory;
  athena::AthenaMetrics metrics;
  std::vector<std::unique_ptr<athena::AthenaNode>> nodes;
};

/// Bind the fault_* and chaos_* knobs (docs/SCENARIOS.md). The binder
/// holds pointers into the arguments: it must not outlive them.
void bind_fault_knobs(SpecBinder& b, fault::FaultSpec& faults,
                      fault::ChaosSpec& chaos, bool& crash_recovery,
                      SimTime& recovery_lease);

/// The ScenarioRunner of a plugin traits struct:
///
///   struct RoutePlugin {
///     using Config = ScenarioConfig;  // has `seed` and `horizon`
///     using Run = RouteRun;  // Run(const Config&), advance(SimTime),
///                            // collect() -> the plugin's result
///     static ScenarioMetadata metadata();
///     static constexpr auto binder = &route_binder;  // SpecBinder(Config&)
///     static ScenarioOutcome outcome(const ScenarioResult& r);
///   };
template <class Plugin>
class PluginRunner final : public ScenarioRunner {
 public:
  [[nodiscard]] const ScenarioMetadata& metadata() const override {
    static const ScenarioMetadata meta = Plugin::metadata();
    return meta;
  }

  [[nodiscard]] ScenarioSpec spec() const override {
    typename Plugin::Config copy = cfg_;
    return Plugin::binder(copy).to_spec();
  }

  void configure(const ScenarioSpec& spec) override {
    DDE_CHECK(run_ == nullptr,
              "scenario: configure() between setup() and reset()");
    Plugin::binder(cfg_).apply(spec);
  }

  void setup(std::uint64_t seed) override {
    cfg_.seed = seed;
    run_ = std::make_unique<typename Plugin::Run>(cfg_);
  }

  void tick(SimTime until) override {
    DDE_CHECK(run_ != nullptr, "scenario: tick() before setup()");
    run_->advance(until);
  }

  [[nodiscard]] SimTime horizon() const override { return cfg_.horizon; }

  [[nodiscard]] ScenarioOutcome outcome() override {
    DDE_CHECK(run_ != nullptr, "scenario: outcome() before setup()");
    return Plugin::outcome(run_->collect());
  }

  void reset() override { run_.reset(); }

 private:
  typename Plugin::Config cfg_;
  std::unique_ptr<typename Plugin::Run> run_;
};

/// The built-in plugins, registered by the registry on first use.
[[nodiscard]] std::unique_ptr<ScenarioRunner> make_route_scenario();
[[nodiscard]] std::unique_ptr<ScenarioRunner> make_teleop_scenario();
[[nodiscard]] std::unique_ptr<ScenarioRunner> make_trigger_scenario();

}  // namespace dde::scenario
