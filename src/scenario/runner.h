// The pluggable scenario framework: every experiment world (route
// assessment, warehouse trigger, vehicular teleoperation, ...) is a
// ScenarioRunner plugin behind a declarative ScenarioSpec, discoverable
// through a deterministic name registry.
//
// A plugin's lifecycle:
//
//   auto runner = scenario::find_scenario("route");   // registry lookup
//   runner->configure(spec);       // declarative knobs (DDE_CHECKs typos)
//   runner->setup(seed);           // build world + workload for one seed
//   runner->tick(runner->horizon());   // advance the simulation clock
//   ScenarioOutcome out = runner->outcome();   // named result metrics
//   runner->reset();               // drop run state; setup() again reuses it
//
// run(seed) bundles setup/tick/outcome for the common whole-run case.
// Registration is explicit and idempotent (the registry registers the
// built-in factories, make_route_scenario() etc., on first use) — no
// static-initialization order games — and the registry iterates in sorted
// name order, so listings and any-scenario sweeps are deterministic and
// lint-clean. The built-in plugins are PluginRunner instances over the
// shared protocol stack (both in plugin.h).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "scenario/spec.h"

namespace dde::scenario {

/// Identity card of a scenario plugin, shown by tools/run_scenario --list.
struct ScenarioMetadata {
  std::string name;         ///< registry key (unique, stable)
  std::string description;  ///< one-line summary
  std::string category;     ///< coarse grouping, e.g. "evaluation"
};

/// Named result metrics of one run. A flat double map keeps outcomes
/// uniform across heterogeneous worlds; iteration is sorted (printable
/// deterministically).
struct ScenarioOutcome {
  std::map<std::string, double> metrics;

  [[nodiscard]] double at(const std::string& key) const;
};

/// One pluggable experiment world (see file comment for the lifecycle).
class ScenarioRunner {
 public:
  virtual ~ScenarioRunner() = default;

  [[nodiscard]] virtual const ScenarioMetadata& metadata() const = 0;

  /// The full knob schema with current values (defaults until configured).
  [[nodiscard]] virtual ScenarioSpec spec() const = 0;

  /// Apply declarative knobs. Unknown keys abort (DDE_CHECK) — a typo'd
  /// knob is never silently ignored. May be called repeatedly; later specs
  /// overlay earlier ones. Must not be called between setup() and reset().
  virtual void configure(const ScenarioSpec& spec) = 0;

  /// Build the world, workload, and protocol stack for `seed`, replacing
  /// any previous run state. Deterministic: equal (spec, seed) builds
  /// bit-for-bit equal runs.
  virtual void setup(std::uint64_t seed) = 0;

  /// Advance the simulation to absolute time `until` (monotone across
  /// calls; a whole run is tick(horizon())).
  virtual void tick(SimTime until) = 0;

  /// The configured end-of-run time.
  [[nodiscard]] virtual SimTime horizon() const = 0;

  /// Collect result metrics for the run advanced so far.
  [[nodiscard]] virtual ScenarioOutcome outcome() = 0;

  /// Drop run state built by setup(); configuration is kept.
  virtual void reset() = 0;

  /// setup + tick(horizon) + outcome, keeping the run state for
  /// inspection until reset() or the next setup().
  [[nodiscard]] ScenarioOutcome run(std::uint64_t seed);
};

using ScenarioFactory = std::unique_ptr<ScenarioRunner> (*)();

/// Register a scenario under `name` (DDE_CHECKs uniqueness). Plugins
/// shipped in this library self-register lazily; external plugins (tests,
/// tools) may call this directly.
void register_scenario(const std::string& name, ScenarioFactory factory);

/// Instantiate the named scenario, or nullptr if unknown.
[[nodiscard]] std::unique_ptr<ScenarioRunner> find_scenario(
    const std::string& name);

/// All registered names, sorted.
[[nodiscard]] std::vector<std::string> scenario_names();

}  // namespace dde::scenario
