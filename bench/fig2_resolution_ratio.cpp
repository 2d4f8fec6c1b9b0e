// Reproduces Fig. 2: query resolution ratio at varying levels of
// environment dynamics (ratio of fast-changing objects), for all five
// retrieval schemes. 10 randomized repetitions per data point, as in the
// paper (Sec. VII).
//
// Expected shape: decision-driven schemes (lvf, lvfl) resolve most if not
// all queries at every dynamics level; baselines (cmp, slt, lcf) degrade as
// the fast-object ratio grows, due to data expirations and refetches.
#include <cstdio>

#include "bench_util.h"
#include "scenario/spec.h"

int main(int argc, char** argv) {
  using namespace dde;
  const int seeds = argc > 1 ? std::atoi(argv[1]) : 10;
  const std::vector<double> fast_ratios{0.0, 0.2, 0.4, 0.6, 0.8, 1.0};

  std::printf("FIG 2 — query resolution ratio vs environment dynamics\n");
  std::printf("(mean over %d seeds; +- is the 95%% CI half-width)\n\n", seeds);
  std::printf("%-6s", "scheme");
  for (double fr : fast_ratios) std::printf("        fr=%.1f", fr);
  std::printf("\n");

  obs::BenchReport report("fig2_resolution_ratio");
  for (athena::Scheme scheme : bench::all_schemes()) {
    std::printf("%-6s", std::string(to_string(scheme)).c_str());
    for (double fr : fast_ratios) {
      // Declarative sweep point through the scenario registry's spec path
      // (typo'd knob names abort instead of being silently ignored).
      scenario::ScenarioSpec spec;
      spec.set("scheme", std::string(to_string(scheme)));
      spec.set("fast_ratio", fr);
      const auto cfg = scenario::route_config_from_spec(spec);
      const auto cell = bench::run_cell(cfg, seeds);
      std::printf("  %.3f+-%.3f", cell.ratio.mean(), cell.ratio.ci95());
      char key[32];
      std::snprintf(key, sizeof(key), "%s@fr=%.1f",
                    std::string(to_string(scheme)).c_str(), fr);
      bench::report_cell(report, key, cell);
    }
    std::printf("\n");
  }
  report.write();

  std::printf(
      "\npaper: decision-driven retrieval resolves most, if not all, queries\n"
      "at all dynamics levels; baselines struggle as dynamics increase.\n");
  return 0;
}
