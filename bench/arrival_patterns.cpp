// Workload-arrival ablation: the paper issues all queries concurrently
// (Sec. VII); real missions stagger them (event-triggered / periodic,
// Sec. IV-B). Staggered arrivals relieve contention for every scheme, and
// they grow the value of label sharing: evaluated labels linger in caches
// and serve queries that arrive later.
#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace dde;
  const int seeds = argc > 1 ? std::atoi(argv[1]) : 10;

  std::printf("ARRIVAL PATTERNS — concurrent vs staggered queries (%d seeds)\n\n",
              seeds);
  std::printf("%-6s %-12s %8s %10s %11s %7s\n", "scheme", "arrival", "ratio",
              "totalMB", "latency_s", "lhit");

  struct Pattern {
    scenario::ScenarioConfig::Arrival arrival;
    const char* name;
  };
  const Pattern patterns[] = {
      {scenario::ScenarioConfig::Arrival::kConcurrent, "concurrent"},
      {scenario::ScenarioConfig::Arrival::kPoisson, "poisson-60s"},
      {scenario::ScenarioConfig::Arrival::kPeriodic, "periodic-60s"},
  };

  for (athena::Scheme scheme :
       {athena::Scheme::kCmp, athena::Scheme::kLvf, athena::Scheme::kLvfl}) {
    for (const Pattern& p : patterns) {
      scenario::ScenarioConfig cfg;
      cfg.scheme = scheme;
      cfg.fast_ratio = 0.4;
      cfg.arrival = p.arrival;
      cfg.mean_interarrival = SimTime::seconds(60);
      // Room for the latest arrivals to run to their deadline.
      cfg.horizon = SimTime::seconds(700);
      RunningStats ratio;
      RunningStats mb;
      RunningStats latency;
      RunningStats lhit;
      for (const auto& r : bench::run_seeds(cfg, seeds)) {
        ratio.add(r.resolution_ratio());
        mb.add(r.total_megabytes());
        latency.add(r.metrics.mean_latency_s());
        lhit.add(static_cast<double>(r.metrics.label_cache_hits));
      }
      std::printf("%-6s %-12s %8.3f %10.1f %11.2f %7.1f\n",
                  std::string(to_string(scheme)).c_str(), p.name,
                  ratio.mean(), mb.mean(), latency.mean(), lhit.mean());
    }
  }
  std::printf(
      "\nstaggering reduces contention (higher ratio, lower latency) and\n"
      "lets lvfl's shared labels serve late arrivals from caches.\n");
  return 0;
}
