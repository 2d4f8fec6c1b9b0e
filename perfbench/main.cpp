// Decision-query benchmark: host cost per decision query on three scenario
// workloads, with a per-layer profile of the same episodes on request.
//
//   perfbench --workload city|paper|teleop --seed N --seconds S --trace 0|1
//
// A run is a closed loop of scenario episodes on the main thread. Each
// episode builds one seeded world through the scenario registry (setup),
// simulates it to its horizon (tick) and collects its outcome. The run
// makes full passes over the workload's episode seeds, derived from --seed,
// until --seconds have passed (at least kMinCycles passes), so every seed is
// replayed, and a replay must reproduce its seed's first outcome exactly —
// the simulator's determinism contract. One unmeasured warm-up episode runs
// first.
//
// --trace 0 reports the end-to-end metrics:
//   host_ms_per_decision  host time in tick and outcome per decision query
//                         issued, summed over all episodes
//   setup_s               median host time of one episode's setup
//   peak_rss_mb           peak resident set size of the process
// Both times are calibrated (see probe_s): each pass's times are divided
// by the median time a fixed reference workload took during that pass,
// then multiplied by that workload's nominal 1 ms. VMs that share their
// cores with other tenants slow down by up to ~1.7x for seconds at a time;
// the probe slows down with them, and the ratio does not.
//
// --trace 1 replays the same episodes, uncalibrated, under the sampling
// profiler (profiler.h) and reports the host time charged to each simulator
// layer per decision query, plus the work counts that explain it.
//
// The last stdout line is one JSON object {"correct", "attempted",
// "failed", "metrics"}; attempted counts episodes, failed those whose
// outcome broke a check.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "profiler.h"
#include "scenario/runner.h"
#include "scenario/spec.h"

namespace {

using Clock = std::chrono::steady_clock;
using Outcome = std::map<std::string, double>;

struct Workload {
  const char* name;
  const char* scenario;
  std::vector<std::pair<const char*, const char*>> knobs;
  /// Outcome key of the share of queries decided in time.
  const char* decided_key;
  /// Distinct episode seeds per run: enough that the spread in cost between
  /// seeded worlds averages out, few enough that two passes fit in a run.
  std::size_t episode_seeds;
};

// Each workload is a configuration the repository already runs:
// city: bench/scale_city's city preset — open Poisson arrivals on a 20×20
//   grid with 160 nodes, 4 queries per node over 600 s.
// paper: the route scenario's defaults, i.e. the paper's evaluation setup
//   (Sec. VII, bench/fig2_resolution_ratio): 30 nodes on an 8×8 grid, 3
//   queries per node all issued near t = 0.
// teleop: the teleop scenario's defaults, one cell of
//   bench/teleop_mobility (6 vehicles, 3 carriers, multipath K = 2, burst
//   length 8, 5 s deadline).
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all{
      {"city",
       "route",
       {{"grid_width", "20"},
        {"grid_height", "20"},
        {"node_count", "160"},
        {"queries_per_node", "4"},
        {"arrival", "poisson"},
        {"mean_interarrival_s", "15"},
        {"horizon_s", "600"},
        {"link_radius", "2.2"}},
       "resolution_ratio",
       16},
      {"paper", "route", {}, "resolution_ratio", 256},
      {"teleop", "teleop", {}, "deadline_hit_rate", 512},
  };
  return all;
}

/// Floor on the decided share of any episode. Seeded worlds vary around
/// means of ~0.75 (city), ~0.82 (teleop) and ~0.98 (paper); an episode far
/// below all of them means the protocol stopped deciding.
constexpr double kMinDecided = 0.25;
constexpr int kMinCycles = 2;
/// Calibrated episodes tick in this many equal spans of simulated time, so
/// the probe can also run inside long episodes.
constexpr int kSlices = 32;
/// Minimum host time between two probes inside an episode.
constexpr double kProbeEvery_s = 0.05;
/// The probe's nominal duration; calibrated times are in these units.
constexpr double kProbeNominal_s = 1e-3;

/// Layers reported by --trace 1; the profiler's other layers count as
/// "other". obs is absent: registry-built scenarios attach no trace sink.
constexpr const char* kLayers[] = {"athena", "decision", "directory",
                                   "des",    "net",      "cache",
                                   "common", "world",    "scenario",
                                   "other"};

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

volatile std::uint64_t g_probe_result = 0;

/// Host seconds for a fixed reference workload shaped like the simulator's
/// hot loop: a timestamp-ordered event queue dispatching through
/// std::function handlers that update and erase entries of a hash table.
/// It shares no code with the simulator, so it measures the machine's
/// current speed for this kind of work, not the program's. About 1 ms on
/// an unloaded x86-64 core.
double probe_s() {
  struct Event {
    std::uint64_t at;
    std::uint32_t kind;
    bool operator>(const Event& other) const { return at > other.at; }
  };
  const auto start = Clock::now();
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::unordered_map<std::uint32_t, std::uint64_t> table;
  std::uint64_t x = 12345;
  const auto next = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(x >> 33);
  };
  const std::function<void(std::uint64_t)> handlers[] = {
      [&](std::uint64_t at) {
        table[next() % 4096] += at;
        queue.push({at + next() % 1000, next()});
      },
      [&](std::uint64_t at) {
        const auto it = table.find(next() % 4096);
        if (it != table.end()) it->second ^= at;
        queue.push({at + next() % 500, next()});
      },
      [&](std::uint64_t at) {
        if (table.size() > 3000) table.erase(next() % 4096);
        queue.push({at + 1 + next() % 2000, next()});
      },
  };
  for (int i = 0; i < 256; ++i) queue.push({next() % 1000, next()});
  for (int i = 0; i < 8500; ++i) {
    const Event ev = queue.top();
    queue.pop();
    handlers[ev.kind % 3](ev.at);
  }
  g_probe_result = table.size() + queue.size();
  return seconds_between(start, Clock::now());
}

struct Episode {
  double setup_s = 0.0;
  double run_s = 0.0;  ///< tick to the horizon plus outcome collection
  std::vector<double> probes;  ///< probe times (calibrated episodes only)
  Outcome outcome;
};

/// One episode of `seed`. A calibrated episode runs the probe before setup
/// and between tick spans at least kProbeEvery_s apart; probe time is not
/// part of the episode's times. Otherwise the tick is one call.
Episode run_episode(dde::scenario::ScenarioRunner& runner, std::uint64_t seed,
                    bool calibrate, perfbench::Profiler* profiler) {
  Episode ep;
  auto last_probe = Clock::now();
  if (calibrate) {
    ep.probes.push_back(probe_s());
    last_probe = Clock::now();
  }
  const auto t0 = Clock::now();
  runner.setup(seed);
  auto mark = Clock::now();
  ep.setup_s = seconds_between(t0, mark);
  if (profiler != nullptr) profiler->start();
  const int slices = calibrate ? kSlices : 1;
  const dde::SimTime::rep horizon = runner.horizon().count();
  for (int j = 1; j <= slices; ++j) {
    const dde::SimTime::rep until =
        j == slices ? horizon : horizon / slices * j;
    runner.tick(dde::SimTime::micros(until));
    if (j == slices) ep.outcome = runner.outcome().metrics;
    const auto now = Clock::now();
    ep.run_s += seconds_between(mark, now);
    if (calibrate && j < slices &&
        seconds_between(last_probe, now) >= kProbeEvery_s) {
      ep.probes.push_back(probe_s());
      last_probe = Clock::now();
    }
    mark = Clock::now();
  }
  if (profiler != nullptr) profiler->stop();
  runner.reset();
  return ep;
}

double value_or_zero(const Outcome& o, const char* key) {
  const auto it = o.find(key);
  return it == o.end() ? 0.0 : it->second;
}

/// Empty when the outcome is plausible, else what is wrong with it.
std::string check_outcome(const Workload& w, const Outcome& o) {
  for (const auto& [key, value] : o) {
    if (!std::isfinite(value)) return key + " is not finite";
  }
  const double queries = value_or_zero(o, "queries");
  const double decided = value_or_zero(o, w.decided_key);
  if (queries < 1.0) return "no decision queries issued";
  if (value_or_zero(o, "events") < queries) return "fewer events than queries";
  if (value_or_zero(o, "total_megabytes") <= 0.0) return "no network traffic";
  if (decided < kMinDecided || decided > 1.0) {
    return std::string(w.decided_key) + " out of range";
  }
  if (value_or_zero(o, "queries_resolved") +
          value_or_zero(o, "queries_failed") >
      queries) {
    return "more outcomes than queries";
  }
  return {};
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload city|paper|teleop --seed N "
               "--seconds S --trace 0|1\n",
               argv0);
  return 2;
}

bool parse_uint(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  if (text[0] == '\0' || text[0] == '-') return false;
  *out = std::strtoull(text, &end, 10);
  return *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  std::uint64_t trace = 2;
  bool have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : workloads()) {
        if (w.name == std::string(value)) workload = &w;
      }
      if (workload == nullptr) return usage(argv[0]);
    } else if (flag == "--seed") {
      if (!parse_uint(value, &seed)) return usage(argv[0]);
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_uint(value, &seconds) || seconds == 0) return usage(argv[0]);
    } else if (flag == "--trace") {
      if (!parse_uint(value, &trace) || trace > 1) return usage(argv[0]);
    } else {
      return usage(argv[0]);
    }
  }
  if (workload == nullptr || !have_seed || seconds == 0 || trace > 1) {
    return usage(argv[0]);
  }
  // Timed runs use the plain build, profiled runs the frame-pointer build
  // (CMakeLists.txt); each binary serves only its own mode.
#ifdef PERFBENCH_TRACED
  constexpr std::uint64_t kTraceMode = 1;
#else
  constexpr std::uint64_t kTraceMode = 0;
#endif
  if (trace != kTraceMode) {
    std::fprintf(stderr, "perfbench: this binary runs only --trace %llu\n",
                 static_cast<unsigned long long>(kTraceMode));
    return 2;
  }
  const Workload& w = *workload;

  auto runner = dde::scenario::find_scenario(w.scenario);
  if (runner == nullptr) {
    std::fprintf(stderr, "perfbench: scenario '%s' is not registered\n",
                 w.scenario);
    return 1;
  }
  dde::scenario::ScenarioSpec spec;
  for (const auto& [key, value] : w.knobs) spec.set(key, value);
  runner->configure(spec);

  std::vector<std::uint64_t> seeds;
  std::uint64_t state = seed;
  while (seeds.size() < w.episode_seeds) seeds.push_back(splitmix64(state));

  std::map<std::uint64_t, Outcome> first_outcome;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const auto verify = [&](std::uint64_t episode_seed, const Episode& ep) {
    ++attempted;
    std::string problem = check_outcome(w, ep.outcome);
    const auto [it, fresh] = first_outcome.try_emplace(episode_seed, ep.outcome);
    if (problem.empty() && !fresh && it->second != ep.outcome) {
      problem = "replay differs from the first run of this seed";
    }
    if (!problem.empty()) {
      ++failed;
      std::fprintf(stderr, "perfbench: %s seed %llu: %s\n", w.name,
                   static_cast<unsigned long long>(episode_seed),
                   problem.c_str());
    }
  };

  // Warm-up: unmeasured and ticked in one call, so it is also the reference
  // that the sliced and the profiled replays of seeds[0] must reproduce.
  verify(seeds[0], run_episode(*runner, seeds[0], false, nullptr));

  std::unique_ptr<perfbench::Profiler> profiler;
  if (trace == 1) profiler = std::make_unique<perfbench::Profiler>();
  const bool calibrate = trace == 0;

  std::size_t episodes = 0;
  double run_s = 0.0;
  double queries = 0.0;
  double events = 0.0;
  double megabytes = 0.0;
  double decided = 0.0;
  // Calibration is per pass: a pass's times are divided by the median of
  // the probes taken during it, which ignores probes a preemption hit and
  // follows drift on the scale of seconds.
  double calibrated_run = 0.0;  // Σ over passes of pass run_s / probe
  std::vector<double> calibrated_setup;  // setup_s / probe per episode
  std::vector<double> probe_times;
  const auto start = Clock::now();
  for (int cycle = 0;
       cycle < kMinCycles ||
       seconds_between(start, Clock::now()) < static_cast<double>(seconds);
       ++cycle) {
    double pass_run_s = 0.0;
    std::vector<double> pass_setups;
    std::vector<double> pass_probes;
    for (const std::uint64_t episode_seed : seeds) {
      const Episode ep =
          run_episode(*runner, episode_seed, calibrate, profiler.get());
      verify(episode_seed, ep);
      ++episodes;
      const double q = value_or_zero(ep.outcome, "queries");
      run_s += ep.run_s;
      queries += q;
      events += value_or_zero(ep.outcome, "events");
      megabytes += value_or_zero(ep.outcome, "total_megabytes");
      decided += value_or_zero(ep.outcome, w.decided_key) * q;
      pass_run_s += ep.run_s;
      pass_setups.push_back(ep.setup_s);
      pass_probes.insert(pass_probes.end(), ep.probes.begin(),
                         ep.probes.end());
    }
    if (calibrate) {
      const double probe = median(pass_probes);
      calibrated_run += pass_run_s / probe;
      for (const double s : pass_setups) calibrated_setup.push_back(s / probe);
      probe_times.push_back(probe);
    }
  }
  queries = std::max(queries, 1.0);

  std::vector<Metric> metrics;
  if (trace == 0) {
    metrics.push_back({"host_ms_per_decision",
                       calibrated_run * kProbeNominal_s * 1e3 / queries,
                       "ms"});
    metrics.push_back(
        {"setup_s", median(calibrated_setup) * kProbeNominal_s, "s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    std::fprintf(stderr,
                 "perfbench: uncalibrated %.4f ms per decision; median "
                 "probe %.4f ms\n",
                 run_s * 1e3 / queries, median(probe_times) * 1e3);
  } else {
    std::map<std::string, std::uint64_t> by_layer;
    std::uint64_t samples = 0;
    for (const auto& [layer, count] : profiler->layer_samples()) {
      const bool reported =
          std::find(std::begin(kLayers), std::end(kLayers), layer) !=
          std::end(kLayers);
      by_layer[reported ? layer : "other"] += count;
      samples += count;
    }
    const double us_per_decision = run_s * 1e6 / queries;
    for (const char* layer : kLayers) {
      const double share =
          samples == 0 ? 0.0
                       : static_cast<double>(by_layer[layer]) /
                             static_cast<double>(samples);
      metrics.push_back({std::string(layer) + "_us_per_decision",
                         share * us_per_decision, "us"});
    }
    metrics.push_back(
        {"profiled_ms_per_decision", us_per_decision / 1e3, "ms"});
    std::fprintf(stderr, "perfbench: %llu profile samples\n",
                 static_cast<unsigned long long>(samples));
    metrics.push_back(
        {"host_us_per_event", run_s * 1e6 / std::max(events, 1.0), "us"});
    metrics.push_back({"sim_events_per_decision", events / queries, "count"});
    metrics.push_back(
        {"net_kb_per_decision", megabytes * 1e3 / queries, "kB"});
    metrics.push_back({"decided_pct", 100.0 * decided / queries, "%"});
  }
  std::fprintf(stderr,
               "perfbench: %s: %zu measured episodes, %.0f decision queries, "
               "%.2f s measured\n",
               w.name, episodes, queries, run_s);
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}
