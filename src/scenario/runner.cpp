#include "scenario/runner.h"

#include <cstdio>

#include "common/contracts.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "scenario/plugin.h"

namespace dde::scenario {
namespace {

/// Sorted name → factory map plus the lock that owns it: the one registry
/// singleton is process-wide shared state, so the map is DDE_GUARDED_BY
/// its mutex and clang -Wthread-safety checks every access. Registration
/// and lookup are cold paths (startup wiring, once per run), so the lock
/// never sits on a hot path.
struct Registry {
  common::Mutex mu;
  std::map<std::string, ScenarioFactory> map DDE_GUARDED_BY(mu);
};

Registry& registry() {
  // lint: shared-state — the singleton's mutable map is guarded by its own
  // mutex (machine-checked via the DDE_GUARDED_BY annotation above);
  // function-local static so it needs no static-init ordering.
  static Registry reg;
  return reg;
}

/// Register the plugins shipped in this library. Explicit calls instead of
/// static self-registration objects: those get dropped when the scenario
/// library is linked statically and nothing references the plugin TU.
void ensure_builtins() {
  static const bool once = [] {
    for (ScenarioFactory factory :
         {make_route_scenario, make_teleop_scenario, make_trigger_scenario}) {
      register_scenario(factory()->metadata().name, factory);
    }
    return true;
  }();
  (void)once;
}

}  // namespace

double ScenarioOutcome::at(const std::string& key) const {
  const auto it = metrics.find(key);
  if (it == metrics.end()) {
    std::fprintf(stderr, "ScenarioOutcome: missing metric '%s'\n",
                 key.c_str());
  }
  DDE_CHECK(it != metrics.end(), "ScenarioOutcome: missing metric");
  return it->second;
}

ScenarioOutcome ScenarioRunner::run(std::uint64_t seed) {
  setup(seed);
  tick(horizon());
  return outcome();
}

void register_scenario(const std::string& name, ScenarioFactory factory) {
  DDE_CHECK(!name.empty(), "register_scenario: empty name");
  DDE_CHECK(factory != nullptr, "register_scenario: null factory");
  Registry& reg = registry();
  bool inserted = false;
  {
    const common::MutexLock lock(&reg.mu);
    inserted = reg.map.emplace(name, factory).second;
  }
  if (!inserted) {
    std::fprintf(stderr, "register_scenario: duplicate name '%s'\n",
                 name.c_str());
  }
  DDE_CHECK(inserted, "register_scenario: duplicate scenario name");
}

std::unique_ptr<ScenarioRunner> find_scenario(const std::string& name) {
  ensure_builtins();
  Registry& reg = registry();
  ScenarioFactory factory = nullptr;
  {
    const common::MutexLock lock(&reg.mu);
    const auto it = reg.map.find(name);
    if (it != reg.map.end()) factory = it->second;
  }
  if (factory == nullptr) return nullptr;
  return factory();
}

std::vector<std::string> scenario_names() {
  ensure_builtins();
  Registry& reg = registry();
  const common::MutexLock lock(&reg.mu);
  std::vector<std::string> names;
  names.reserve(reg.map.size());
  for (const auto& [name, factory] : reg.map) names.push_back(name);
  return names;
}

}  // namespace dde::scenario
