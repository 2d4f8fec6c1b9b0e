// Shared helpers for the experiment binaries: aggregate scenario runs over
// seeds, print aligned tables, and emit machine-readable BENCH_*.json
// reports (src/obs/bench_report.h).
//
// Seed replication is fanned out across DDE_BENCH_JOBS worker threads
// (src/harness/parallel_runner.h): each seed owns its full simulation
// state, and all folding into RunningStats / DecisionTelemetry happens on
// the calling thread in seed order — so every printed table and BENCH
// report is byte-identical at any thread count (jobs=1 is the exact legacy
// serial path).
#pragma once

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "common/stats.h"
#include "harness/parallel_runner.h"
#include "obs/bench_report.h"
#include "obs/trace.h"
#include "scenario/route_scenario.h"

namespace dde::bench {

/// Run `cfg` once per seed 1..seeds, in parallel, returning results in seed
/// order. Any aggregation over the returned vector is bit-identical to the
/// legacy `for (s = 1..seeds)` loop.
inline std::vector<scenario::ScenarioResult> run_seeds(
    const scenario::ScenarioConfig& cfg, int seeds) {
  return harness::run_indexed(
      static_cast<std::size_t>(seeds < 0 ? 0 : seeds), [&](std::size_t i) {
        scenario::ScenarioConfig c = cfg;
        c.seed = static_cast<std::uint64_t>(i + 1);
        return scenario::run_route_scenario(c);
      });
}

/// One seed's scenario result plus the per-run derived decision telemetry
/// (each worker owns its TraceSink; attaching it is observation only).
struct SeedRun {
  scenario::ScenarioResult result;
  obs::DecisionTelemetry telem;
};

/// run_seeds with a derive-only trace sink attached to every run.
inline std::vector<SeedRun> run_seeds_traced(
    const scenario::ScenarioConfig& cfg, int seeds) {
  return harness::run_indexed(
      static_cast<std::size_t>(seeds < 0 ? 0 : seeds), [&](std::size_t i) {
        scenario::ScenarioConfig c = cfg;
        c.seed = static_cast<std::uint64_t>(i + 1);
        obs::TraceSink sink;  // derive-only: no ring, no JSONL
        c.trace_sink = &sink;
        SeedRun run;
        run.result = scenario::run_route_scenario(c);
        run.telem.merge(sink.decision_telemetry());
        return run;
      });
}

/// Aggregated results of one (scheme, config) cell over several seeds.
struct Cell {
  RunningStats ratio;       ///< query resolution ratio
  RunningStats megabytes;   ///< total network bandwidth
  RunningStats latency_s;   ///< mean resolution latency
  RunningStats object_mb;   ///< foreground object bytes
  RunningStats push_mb;     ///< prefetch push bytes
  RunningStats label_mb;    ///< label-share / label-reply bytes
  RunningStats refetches;
  RunningStats stale;
  /// Per-decision distributions (age-upon-decision, slack-at-decision,
  /// bytes-per-decision), derived by a per-run trace sink and merged
  /// across seeds. Attaching the sink is observation only: the text
  /// numbers above are bit-identical to a harness without it.
  obs::DecisionTelemetry telem;
};

/// Run `cfg` for seeds 1..seeds (parallel across workers) and aggregate in
/// seed order on this thread.
inline Cell run_cell(const scenario::ScenarioConfig& cfg, int seeds) {
  Cell cell;
  for (const SeedRun& run : run_seeds_traced(cfg, seeds)) {
    const auto& r = run.result;
    cell.ratio.add(r.resolution_ratio());
    cell.megabytes.add(r.total_megabytes());
    cell.latency_s.add(r.metrics.mean_latency_s());
    cell.object_mb.add(static_cast<double>(r.metrics.object_bytes) / 1e6);
    cell.push_mb.add(static_cast<double>(r.metrics.push_bytes) / 1e6);
    cell.label_mb.add(static_cast<double>(r.metrics.label_bytes) / 1e6);
    cell.refetches.add(static_cast<double>(r.metrics.refetches));
    cell.stale.add(static_cast<double>(r.metrics.stale_arrivals));
    cell.telem.merge(run.telem);
  }
  return cell;
}

/// Record one cell in a report under `scheme` (any config-point key):
/// every aggregated metric plus the three per-decision histograms.
inline void report_cell(obs::BenchReport& report, const std::string& scheme,
                        const Cell& cell) {
  report.add_metric(scheme, "resolution_ratio", cell.ratio);
  report.add_metric(scheme, "total_megabytes", cell.megabytes);
  report.add_metric(scheme, "mean_latency_s", cell.latency_s);
  report.add_metric(scheme, "object_megabytes", cell.object_mb);
  report.add_metric(scheme, "push_megabytes", cell.push_mb);
  report.add_metric(scheme, "label_megabytes", cell.label_mb);
  report.add_metric(scheme, "refetches", cell.refetches);
  report.add_metric(scheme, "stale_arrivals", cell.stale);
  report.add_histogram(scheme, "age_upon_decision_s",
                       cell.telem.age_upon_decision_s);
  report.add_histogram(scheme, "slack_at_decision_s",
                       cell.telem.slack_at_decision_s);
  report.add_histogram(scheme, "bytes_per_decision",
                       cell.telem.bytes_per_decision);
}

inline const std::vector<athena::Scheme>& all_schemes() {
  static const std::vector<athena::Scheme> schemes{
      athena::Scheme::kCmp, athena::Scheme::kSlt, athena::Scheme::kLcf,
      athena::Scheme::kLvf, athena::Scheme::kLvfl};
  return schemes;
}

}  // namespace dde::bench
