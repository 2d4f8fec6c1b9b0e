// Ablation: the background prefetch queues of Sec. VI-A.
//
// Prefetching pushes objects toward announced query origins before they are
// requested, trading background bandwidth for timeliness. This bench
// quantifies that trade for every scheme at the Fig. 3 operating point.
#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace dde;
  const int seeds = argc > 1 ? std::atoi(argv[1]) : 10;

  std::printf("ABLATION — prefetch on/off (40%% fast objects, %d seeds)\n\n",
              seeds);
  std::printf("%-6s %-9s %8s %10s %11s %9s\n", "scheme", "prefetch", "ratio",
              "totalMB", "latency_s", "staleAvg");

  for (athena::Scheme scheme : bench::all_schemes()) {
    for (bool prefetch : {true, false}) {
      scenario::ScenarioConfig cfg;
      cfg.scheme = scheme;
      cfg.fast_ratio = 0.4;
      auto ac = athena::config_for(scheme);
      ac.prefetch = prefetch;
      cfg.config_override = ac;
      const auto cell = bench::run_cell(cfg, seeds);
      std::printf("%-6s %-9s %8.3f %10.1f %11.2f %9.1f\n",
                  std::string(to_string(scheme)).c_str(),
                  prefetch ? "on" : "off", cell.ratio.mean(),
                  cell.megabytes.mean(), cell.latency_s.mean(),
                  cell.stale.mean());
    }
  }
  std::printf(
      "\nprefetch buys resolution latency at the cost of background pushes;\n"
      "the scheme ordering of Fig. 3 must hold in both configurations.\n");
  return 0;
}
