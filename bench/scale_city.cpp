// City-scale hot-path bench: a heavy open-arrival workload on a large
// grid, far beyond the paper's 8×8/30-node setup.
//
// Output discipline: stdout carries ONLY deterministic simulation results
// (byte-identical at any DDE_BENCH_JOBS), so CI can diff jobs=1 vs jobs=4
// runs directly. Wall-clock throughput and peak RSS go to stderr and into
// BENCH_scale_city.json (scheme `process`), validated by
// tools/check_bench_report --require-positive.
//
// Usage: scale_city [seeds] [city|small]
//   small = CI/sanitizer smoke preset (shrunken grid).
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_util.h"

namespace {

using namespace dde;

struct Preset {
  const char* name;
  int grid;                 ///< grid is grid × grid segments
  std::size_t nodes;
  std::size_t queries_per_node;
  double interarrival_s;    ///< Poisson mean inter-arrival per node
  double horizon_s;
};

constexpr Preset kCity{"city", 20, 160, 4, 15.0, 600.0};
constexpr Preset kSmall{"small", 10, 48, 2, 10.0, 120.0};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace

int main(int argc, char** argv) {
  const int seeds = argc > 1 ? std::atoi(argv[1]) : 5;
  const Preset preset =
      (argc > 2 && std::strcmp(argv[2], "small") == 0) ? kSmall : kCity;

  // --- City workload: open Poisson arrivals on a large grid -------------
  scenario::ScenarioConfig cfg;
  cfg.grid_width = preset.grid;
  cfg.grid_height = preset.grid;
  cfg.node_count = preset.nodes;
  cfg.queries_per_node = preset.queries_per_node;
  cfg.arrival = scenario::ScenarioConfig::Arrival::kPoisson;
  cfg.mean_interarrival = SimTime::seconds(preset.interarrival_s);
  cfg.horizon = SimTime::seconds(preset.horizon_s);
  cfg.link_radius = 2.2;

  std::printf("SCALE CITY — %s preset: %dx%d grid, %zu nodes, open Poisson "
              "arrivals (%d seeds)\n\n",
              preset.name, preset.grid, preset.grid, preset.nodes, seeds);
  std::printf("%-6s %8s %10s %11s %12s %9s\n", "scheme", "ratio", "totalMB",
              "latency_s", "sim_events", "queries");

  RunningStats ratio;
  RunningStats mb;
  RunningStats latency;
  RunningStats sim_events;
  RunningStats queries;
  const auto city_start = std::chrono::steady_clock::now();
  for (const auto& r : bench::run_seeds(cfg, seeds)) {
    ratio.add(r.resolution_ratio());
    mb.add(r.total_megabytes());
    latency.add(r.metrics.mean_latency_s());
    sim_events.add(static_cast<double>(r.events));
    queries.add(static_cast<double>(r.queries));
  }
  const double city_elapsed = seconds_since(city_start);
  std::printf("%-6s %8.3f %10.1f %11.2f %12.0f %9.0f\n",
              std::string(to_string(cfg.scheme)).c_str(), ratio.mean(),
              mb.mean(), latency.mean(), sim_events.sum(), queries.sum());

  // Wall-clock results: stderr only, so stdout stays byte-identical across
  // DDE_BENCH_JOBS settings and hosts.
  const double city_eps = sim_events.sum() / city_elapsed;
  std::fprintf(stderr,
               "\ncity throughput: %.0f events/s (%.0f events in %.2fs)\n"
               "peak RSS: %.1f MB\n",
               city_eps, sim_events.sum(), city_elapsed, peak_rss_mb());

  obs::BenchReport report("scale_city");
  report.add_metric("city", "resolution_ratio", ratio);
  report.add_metric("city", "total_megabytes", mb);
  report.add_metric("city", "mean_latency_s", latency);
  report.add_metric("city", "sim_events", sim_events);
  report.add_metric("city", "queries", queries);
  {
    RunningStats city_throughput;
    city_throughput.add(city_eps);
    report.add_metric("process", "city_events_per_sec", city_throughput);
    RunningStats rss;
    rss.add(peak_rss_mb());
    report.add_metric("process", "peak_rss_mb", rss);
  }
  report.write();
  return 0;
}
