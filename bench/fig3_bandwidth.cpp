// Reproduces Fig. 3: total network bandwidth consumption of all scheduling
// schemes, at 40% fast-changing objects (Sec. VII).
//
// Expected shape: bandwidth strictly decreases cmp → slt → lcf → lvf → lvfl;
// comprehensive retrieval is the most expensive, label sharing the cheapest.
#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace dde;
  const int seeds = argc > 1 ? std::atoi(argv[1]) : 10;

  std::printf("FIG 3 — total network bandwidth (MB), 40%% fast objects\n");
  std::printf("(mean over %d seeds; breakdown per message kind)\n\n", seeds);
  std::printf("%-6s %10s %9s | %9s %8s %8s | %8s %8s\n", "scheme", "totalMB",
              "+-95%", "objectMB", "pushMB", "labelMB", "refetch", "stale");

  obs::BenchReport report("fig3_bandwidth");
  double previous = -1.0;
  bool monotone = true;
  for (athena::Scheme scheme : bench::all_schemes()) {
    scenario::ScenarioConfig cfg;
    cfg.scheme = scheme;
    cfg.fast_ratio = 0.4;
    const auto cell = bench::run_cell(cfg, seeds);
    bench::report_cell(report, std::string(to_string(scheme)), cell);
    std::printf("%-6s %10.1f %9.1f | %9.1f %8.1f %8.1f | %8.1f %8.1f\n",
                std::string(to_string(scheme)).c_str(),
                cell.megabytes.mean(), cell.megabytes.ci95(),
                cell.object_mb.mean(), cell.push_mb.mean(),
                cell.label_mb.mean(), cell.refetches.mean(),
                cell.stale.mean());
    if (previous >= 0 && cell.megabytes.mean() > previous) monotone = false;
    previous = cell.megabytes.mean();
  }

  report.write();
  std::printf("\nshape check: bandwidth decreasing cmp>slt>lcf>lvf>lvfl: %s\n",
              monotone ? "YES" : "NO");
  std::printf(
      "paper: bandwidth decreases marginally with slt/lcf, considerably with\n"
      "decision-driven scheduling, and most with label sharing (lvfl).\n");
  return 0;
}
