// Ablation: in-network object caches (Sec. VI-B).
//
// Every Athena node caches passing objects; requests can be served by any
// node on the path. Disabling the cache forces every request to travel to
// the source, isolating how much of the system's efficiency comes from
// caching versus scheduling.
#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace dde;
  const int seeds = argc > 1 ? std::atoi(argv[1]) : 10;

  std::printf("ABLATION — object cache on/off (40%% fast objects, %d seeds)\n\n",
              seeds);
  std::printf("%-6s %-7s %8s %10s %11s %9s\n", "scheme", "cache", "ratio",
              "totalMB", "latency_s", "refetch");

  for (athena::Scheme scheme : bench::all_schemes()) {
    for (bool cache_on : {true, false}) {
      scenario::ScenarioConfig cfg;
      cfg.scheme = scheme;
      cfg.fast_ratio = 0.4;
      auto ac = athena::config_for(scheme);
      // Prefetch off in BOTH arms: pushes rely on caches to land en route,
      // so leaving prefetch on would conflate the two mechanisms.
      ac.prefetch = false;
      if (!cache_on) ac.object_cache_capacity = 0;
      cfg.config_override = ac;
      const auto cell = bench::run_cell(cfg, seeds);
      std::printf("%-6s %-7s %8.3f %10.1f %11.2f %9.1f\n",
                  std::string(to_string(scheme)).c_str(),
                  cache_on ? "on" : "off", cell.ratio.mean(),
                  cell.megabytes.mean(), cell.latency_s.mean(),
                  cell.refetches.mean());
    }
  }
  return 0;
}
