// Overload protection: graceful degradation under query saturation.
//
// Sweeps offered load from 0.5x to 4x of a near-saturating Poisson query
// rate across all five schemes, each with overload protection off (seed
// behaviour: unbounded link queues, no shedding) and on (bounded queues
// with lowest-priority-newest eviction, deadline-infeasibility shedding,
// admission control for low-priority queries, congestion-throttled
// prefetch). A quarter of the queries are critical (priority 1).
//
// The paper's value-driven promise (Sec. V-C) is that under saturation the
// system keeps serving its highest-value decisions predictably instead of
// collapsing uniformly: critical success should degrade gracefully while
// low-priority work is shed, and total bytes should stay ~linear in
// offered load (no retry/refetch blow-up).
#include <cmath>
#include <cstdio>

#include "bench_util.h"

namespace {

using namespace dde;

/// Per-priority outcome aggregation of one (scheme, load, protection) cell.
struct OverloadCell {
  double crit_issued = 0;
  double crit_ok = 0;
  double low_issued = 0;
  double low_ok = 0;
  double shed = 0;           ///< shed + admission-rejected queries
  double crit_latency_s = 0; ///< summed over successful critical queries
  double megabytes = 0;
  double queue_drops = 0;

  [[nodiscard]] double crit_ratio() const {
    return crit_issued == 0 ? 0 : crit_ok / crit_issued;
  }
  [[nodiscard]] double low_ratio() const {
    return low_issued == 0 ? 0 : low_ok / low_issued;
  }
  [[nodiscard]] double shed_ratio() const {
    const double issued = crit_issued + low_issued;
    return issued == 0 ? 0 : shed / issued;
  }
  [[nodiscard]] double crit_latency() const {
    return crit_ok == 0 ? 0 : crit_latency_s / crit_ok;
  }

  // Per-seed summaries + per-decision telemetry for the machine-readable
  // report; the printed numbers above stay computed exactly as before.
  RunningStats crit_ratio_stats;
  RunningStats low_ratio_stats;
  RunningStats shed_ratio_stats;
  RunningStats megabytes_stats;
  obs::DecisionTelemetry telem;
};

// Load model: Poisson arrivals per node over a fixed ~180 s issue window
// with a 20 s decision deadline. The world is tuned so that demand scales
// with the query rate instead of being absorbed by caches and interest
// aggregation — every object is fast-validity (20 s), so each fresh query
// window refetches — and the mesh is thinned (link radius 1.8) so hot
// links actually saturate. kBaseInterarrival is the per-node mean
// inter-arrival that puts that world near its knee (1.0x); the sweep
// scales the rate, holding the window fixed by scaling the per-node query
// count with it.
constexpr double kBaseInterarrival = 10.0;  // seconds/query/node at 1.0x
constexpr double kIssueWindow = 180.0;      // seconds of arrivals
constexpr double kDeadline = 20.0;          // per-query decision deadline

scenario::ScenarioConfig make_config(athena::Scheme scheme, double load,
                                     bool protection) {
  scenario::ScenarioConfig cfg;
  cfg.scheme = scheme;
  cfg.fast_ratio = 1.0;
  cfg.fast_validity = SimTime::seconds(20);
  cfg.link_radius = 1.8;
  cfg.arrival = scenario::ScenarioConfig::Arrival::kPoisson;
  cfg.mean_interarrival = SimTime::seconds(kBaseInterarrival / load);
  cfg.queries_per_node = static_cast<std::size_t>(
      std::lround(std::max(1.0, kIssueWindow * load / kBaseInterarrival)));
  cfg.query_deadline = SimTime::seconds(kDeadline);
  cfg.horizon = SimTime::seconds(kIssueWindow + kDeadline + 60.0);
  cfg.critical_fraction = 0.25;
  cfg.critical_priority = 1;
  if (protection) {
    auto ac = athena::config_for(scheme);
    ac.shed_infeasible = true;
    ac.admission_max_active = 4;
    ac.prefetch_watermark = 2;
    cfg.config_override = ac;
    cfg.link_queue_max_bytes = 1024 * 1024;  // ~8 s of 1 Mbps backlog
  }
  return cfg;
}

OverloadCell run_cell(athena::Scheme scheme, double load, bool protection,
                      int seeds) {
  OverloadCell cell;
  // Seeds run in parallel (DDE_BENCH_JOBS workers); the fold below happens
  // here in seed order, so the cell is byte-identical at any thread count.
  const auto runs =
      dde::bench::run_seeds_traced(make_config(scheme, load, protection), seeds);
  for (const bench::SeedRun& run : runs) {
    const auto& r = run.result;
    const auto& crit = r.totals.critical;
    const auto& low = r.totals.normal;
    const double seed_issued = static_cast<double>(crit.issued + low.issued);
    const double seed_shed = static_cast<double>(crit.shed + low.shed);
    cell.crit_ratio_stats.add(crit.resolution_ratio());
    cell.low_ratio_stats.add(low.resolution_ratio());
    cell.shed_ratio_stats.add(seed_issued == 0 ? 0 : seed_shed / seed_issued);
    cell.megabytes_stats.add(r.total_megabytes());
    cell.telem.merge(run.telem);
    cell.crit_issued += static_cast<double>(crit.issued);
    cell.crit_ok += static_cast<double>(crit.decided);
    cell.crit_latency_s += crit.latency_s;
    cell.low_issued += static_cast<double>(low.issued);
    cell.low_ok += static_cast<double>(low.decided);
    cell.shed += seed_shed;
    cell.megabytes += r.total_megabytes() / seeds;
    cell.queue_drops += static_cast<double>(r.metrics.queue_drops) / seeds;
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const int seeds = argc > 1 ? std::atoi(argv[1]) : 5;
  const double loads[] = {0.5, 1.0, 2.0, 4.0};

  std::printf(
      "OVERLOAD SATURATION — per-priority degradation, 0.5x–4x load "
      "(%d seeds)\n", seeds);
  std::printf(
      "(Poisson arrivals, %.0f s deadline, 25%% critical; protection = "
      "1 MB link queues,\n shedding, admission cap 4, prefetch watermark "
      "2. off = seed behaviour)\n\n", kDeadline);
  std::printf("%-6s %-5s | %17s | %17s | %15s | %15s | %13s\n", "", "",
              "crit success", "low success", "shed ratio", "traffic MB",
              "crit lat s");
  std::printf("%-6s %-5s | %8s %8s | %8s %8s | %7s %7s | %7s %7s | %6s %6s\n",
              "scheme", "load", "off", "on", "off", "on", "off", "on", "off",
              "on", "off", "on");

  obs::BenchReport report("overload_saturation");
  const auto report_overload = [&report](const std::string& key,
                                         const OverloadCell& cell) {
    report.add_metric(key, "crit_success", cell.crit_ratio_stats);
    report.add_metric(key, "low_success", cell.low_ratio_stats);
    report.add_metric(key, "shed_ratio", cell.shed_ratio_stats);
    report.add_metric(key, "total_megabytes", cell.megabytes_stats);
    report.add_histogram(key, "age_upon_decision_s",
                         cell.telem.age_upon_decision_s);
    report.add_histogram(key, "slack_at_decision_s",
                         cell.telem.slack_at_decision_s);
    report.add_histogram(key, "bytes_per_decision",
                         cell.telem.bytes_per_decision);
  };

  for (athena::Scheme scheme : bench::all_schemes()) {
    for (double load : loads) {
      const OverloadCell off = run_cell(scheme, load, false, seeds);
      const OverloadCell on = run_cell(scheme, load, true, seeds);
      char key[48];
      std::snprintf(key, sizeof(key), "%s@load=%.1f",
                    std::string(to_string(scheme)).c_str(), load);
      report_overload(std::string(key) + ":off", off);
      report_overload(std::string(key) + ":on", on);
      std::printf(
          "%-6s %-5.1f | %8.3f %8.3f | %8.3f %8.3f | %7.3f %7.3f | "
          "%7.1f %7.1f | %6.1f %6.1f\n",
          std::string(to_string(scheme)).c_str(), load, off.crit_ratio(),
          on.crit_ratio(), off.low_ratio(), on.low_ratio(),
          off.shed_ratio(), on.shed_ratio(), off.megabytes, on.megabytes,
          off.crit_latency(), on.crit_latency());
    }
    std::printf("\n");
  }
  report.write();

  std::printf(
      "under saturation the unprotected system degrades uniformly: every\n"
      "class queues behind every other, deadlines pass with work still in\n"
      "flight, and bandwidth is burnt on doomed transfers. with protection\n"
      "on, bounded queues evict low-priority backlog first, infeasible\n"
      "queries are shed before they fetch, and admission control keeps each\n"
      "node's outstanding set small — so critical success holds (or falls\n"
      "much more slowly) while the shed ratio absorbs the excess load, and\n"
      "traffic stays ~linear in offered load instead of superlinear.\n");
  return 0;
}
