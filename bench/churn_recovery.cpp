// Chaos harness (src/fault/chaos.h): crash/restart churn, restart
// semantics, and the crash-recovery protocol.
//
// Part 1 holds a fixed churn schedule and sweeps the restart policy —
// ghost (state survives, the legacy behaviour), warm (caches survive,
// tables wiped), cold (everything wiped) — with the recovery protocol on
// and off. Part 2 sweeps the crash rate under cold restarts, on vs off:
// the off column shows what raw retry/failover machinery salvages, the on
// column adds restart hellos, marker purges, and short recovery leases.
// Part 3 is the seeded chaos sweep: many independent schedules (crashes,
// link flaps, bursty loss) each run to the quiesce point, where the
// invariant checker must find zero residual state and a double run of
// every seed must produce byte-identical outcome digests.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "fault/chaos.h"
#include "harness/parallel_runner.h"
#include "scenario/spec.h"

namespace {

using namespace dde;

/// Workload + chaos shape shared by every part: queries arrive as a
/// Poisson stream across the churn window, with deadlines short enough
/// that a crash mid-retrieval genuinely threatens the decision.
scenario::ScenarioConfig base_config() {
  scenario::ScenarioSpec spec;
  spec.set("scheme", std::string("lvfl"));
  spec.set("fast_ratio", 0.2);
  spec.set("arrival", std::string("poisson"));
  spec.set("mean_interarrival_s", 40.0);
  spec.set("queries_per_node", static_cast<std::int64_t>(4));
  spec.set("query_deadline_s", 60.0);
  spec.set("horizon_s", 300.0);
  auto cfg = scenario::route_config_from_spec(spec);
  cfg.chaos.window_start = SimTime::seconds(20);
  cfg.chaos.window_end = SimTime::seconds(260);
  cfg.chaos.crashes_per_node_min = 0.4;
  return cfg;
}

/// Node config: fault_resilience's recovery stack (tight timeout, doubling
/// backoff, failover) plus the crash-recovery knobs under test.
athena::AthenaConfig node_config(bool recovery_on) {
  auto ac = athena::config_for(athena::Scheme::kLvfl);
  ac.request_timeout = SimTime::seconds(30);
  ac.retry_backoff = 2.0;
  ac.max_source_attempts = 3;
  ac.crash_recovery = recovery_on;
  ac.recovery_lease = recovery_on ? SimTime::seconds(10) : SimTime::zero();
  return ac;
}

struct ChurnCell {
  RunningStats ratio;          ///< resolved / issued
  RunningStats survivor_ratio; ///< resolved / (issued − crashed)
  RunningStats crashed;
  RunningStats restarts;
  RunningStats hellos;
  RunningStats reissues;
  RunningStats recovery_s;
  RunningStats megabytes;
};

ChurnCell run_churn_cell(const scenario::ScenarioConfig& cfg, int seeds) {
  ChurnCell cell;
  for (const auto& r : bench::run_seeds(cfg, seeds)) {
    const auto& m = r.metrics;
    cell.ratio.add(r.resolution_ratio());
    const double alive = static_cast<double>(m.queries_issued) -
                         static_cast<double>(m.queries_failed_crash);
    cell.survivor_ratio.add(
        alive <= 0.0 ? 0.0 : static_cast<double>(m.queries_resolved) / alive);
    cell.crashed.add(static_cast<double>(m.queries_failed_crash));
    cell.restarts.add(static_cast<double>(m.node_restarts));
    cell.hellos.add(static_cast<double>(m.recovery_hellos));
    cell.reissues.add(static_cast<double>(m.recovery_reissues));
    cell.recovery_s.add(m.mean_recovery_time_s());
    cell.megabytes.add(r.total_megabytes());
  }
  return cell;
}

void report_churn_cell(obs::BenchReport& report, const std::string& key,
                       const ChurnCell& cell) {
  report.add_metric(key, "resolution_ratio", cell.ratio);
  report.add_metric(key, "survivor_resolution_ratio", cell.survivor_ratio);
  report.add_metric(key, "crashed_queries", cell.crashed);
  report.add_metric(key, "node_restarts", cell.restarts);
  report.add_metric(key, "recovery_hellos", cell.hellos);
  report.add_metric(key, "recovery_reissues", cell.reissues);
  report.add_metric(key, "recovery_time_s", cell.recovery_s);
  report.add_metric(key, "total_megabytes", cell.megabytes);
}

/// Order-sensitive digest of everything a run observably produced.
std::uint64_t outcome_digest(const scenario::ScenarioResult& r) {
  fault::ReplayDigest d;
  const auto& m = r.metrics;
  d.fold(m.queries_issued);
  d.fold(m.queries_resolved);
  d.fold(m.queries_failed);
  d.fold(m.queries_failed_crash);
  d.fold(m.queries_shed);
  d.fold(m.node_restarts);
  d.fold(m.recovery_hellos);
  d.fold(m.recovery_marker_purges);
  d.fold(m.recovery_reissues);
  d.fold(m.total_recovery_lag_s);
  d.fold(m.total_bytes());
  d.fold(m.retries);
  d.fold(m.failovers);
  d.fold(m.link_down_drops);
  d.fold(r.traffic.bytes);
  d.fold(r.events);
  d.fold(r.totals.digest.value());
  for (const auto& p : r.probes) {
    d.fold(p.node);
    d.fold(p.active_queries);
    d.fold(p.interest_entries);
    d.fold(p.forwarded_entries);
    d.fold(p.dedup_entries);
  }
  return d.value();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dde;
  const int seeds = argc > 1 ? std::atoi(argv[1]) : 10;
  const int schedules = argc > 2 ? std::atoi(argv[2]) : 50;

  obs::BenchReport report("churn_recovery");

  std::printf("CHURN RECOVERY — restart semantics under seeded chaos "
              "(%d seeds)\n", seeds);
  std::printf("(poisson workload, 60 s deadlines; crashes at 0.4/node/min "
              "over t=20..260 s,\n 10–40 s downtime; recovery = hellos + "
              "marker purge/re-issue + 10 s lease)\n\n");

  // --- part 1: restart policy × recovery protocol ------------------------
  std::printf("restart policy sweep — what a crash forgets\n");
  std::printf("%-14s %8s %8s %8s %8s %8s %8s %8s\n", "policy", "ratio",
              "surv", "crashed", "restart", "hellos", "reissue", "rec_s");
  struct PolicyRow {
    const char* key;
    fault::RestartPolicy policy;
    bool recovery;
  };
  const std::vector<PolicyRow> rows = {
      {"ghost", fault::RestartPolicy::kGhost, true},
      {"warm", fault::RestartPolicy::kWarm, true},
      {"cold", fault::RestartPolicy::kCold, true},
      {"cold_norec", fault::RestartPolicy::kCold, false},
  };
  for (const PolicyRow& row : rows) {
    scenario::ScenarioConfig cfg = base_config();
    cfg.chaos.restart_policy = row.policy;
    cfg.config_override = node_config(row.recovery);
    const ChurnCell cell = run_churn_cell(cfg, seeds);
    std::printf("%-14s %8.3f %8.3f %8.1f %8.1f %8.1f %8.1f %8.3f\n", row.key,
                cell.ratio.mean(), cell.survivor_ratio.mean(),
                cell.crashed.mean(), cell.restarts.mean(), cell.hellos.mean(),
                cell.reissues.mean(), cell.recovery_s.mean());
    report_churn_cell(report, row.key, cell);
  }

  // --- part 2: crash-rate sweep, cold restarts, recovery on vs off --------
  std::printf("\ncrash rate sweep (cold restarts) — survivor resolution "
              "ratio, recovery on|off\n");
  std::printf("%-10s", "rate/min");
  for (double rate : {0.1, 0.2, 0.4, 0.8}) std::printf(" %11.1f", rate);
  std::printf("\n%-10s", "on|off");
  for (double rate : {0.1, 0.2, 0.4, 0.8}) {
    ChurnCell on;
    ChurnCell off;
    for (bool recovery : {true, false}) {
      scenario::ScenarioConfig cfg = base_config();
      cfg.chaos.restart_policy = fault::RestartPolicy::kCold;
      cfg.chaos.crashes_per_node_min = rate;
      cfg.config_override = node_config(recovery);
      (recovery ? on : off) = run_churn_cell(cfg, seeds);
    }
    std::printf(" %5.3f|%5.3f", on.survivor_ratio.mean(),
                off.survivor_ratio.mean());
    char key[32];
    std::snprintf(key, sizeof(key), "rate_%.1f_on", rate);
    report_churn_cell(report, key, on);
    std::snprintf(key, sizeof(key), "rate_%.1f_off", rate);
    report_churn_cell(report, key, off);
  }
  std::printf("\n");

  // --- part 3: seeded chaos schedules → quiesce-point invariants ----------
  // Every schedule adds link flaps and a bursty-loss floor on top of the
  // cold crash churn, runs past the horizon until the DES drains, checks
  // the residual-state invariants, and replays the same seed to compare
  // outcome digests. Any violation or digest mismatch is a bug.
  std::printf("\nchaos sweep — %d seeded schedules to quiescence "
              "(cold, recovery on, flaps + burst)\n", schedules);
  struct ChaosRun {
    std::uint64_t violations = 0;
    bool replay_identical = true;
    std::uint64_t events = 0;
  };
  const auto chaos_runs = harness::run_indexed(
      static_cast<std::size_t>(schedules < 0 ? 0 : schedules),
      [&](std::size_t i) {
        scenario::ScenarioConfig cfg = base_config();
        cfg.seed = static_cast<std::uint64_t>(i + 1);
        cfg.chaos.restart_policy = fault::RestartPolicy::kCold;
        cfg.chaos.flaps_per_link_min = 0.1;
        cfg.chaos.burst =
            fault::GilbertElliottParams::for_average_loss(0.02, 4.0);
        cfg.config_override = node_config(/*recovery_on=*/true);
        cfg.run_to_quiescence = true;
        const scenario::ScenarioResult first =
            scenario::run_route_scenario(cfg);
        const scenario::ScenarioResult second =
            scenario::run_route_scenario(cfg);
        ChaosRun run;
        run.violations =
            fault::check_quiesce_invariants(first.probes).violations.size();
        run.replay_identical =
            outcome_digest(first) == outcome_digest(second);
        run.events = first.events;
        return run;
      });
  std::uint64_t total_violations = 0;
  std::uint64_t replay_mismatches = 0;
  RunningStats events;
  RunningStats violations;
  for (const ChaosRun& run : chaos_runs) {
    total_violations += run.violations;
    replay_mismatches += run.replay_identical ? 0 : 1;
    events.add(static_cast<double>(run.events));
    violations.add(static_cast<double>(run.violations));
  }
  std::printf("invariant violations: %llu across %d schedules\n",
              static_cast<unsigned long long>(total_violations), schedules);
  std::printf("replay mismatches:    %llu (every schedule run twice)\n",
              static_cast<unsigned long long>(replay_mismatches));
  report.add_metric("chaos", "invariant_violations", violations);
  report.add_metric("chaos", "replay_mismatches", [&] {
    RunningStats s;
    s.add(static_cast<double>(replay_mismatches));
    return s;
  }());
  report.add_metric("chaos", "events", events);

  std::printf(
      "\nghost crashes cost nothing (state survives by fiat); cold crashes\n"
      "drop in-flight queries and strand neighbors' interest state. the\n"
      "recovery protocol buys back most of the stranded work: restart\n"
      "hellos purge aggregation markers through the crashed hop and\n"
      "re-issue live interests upstream, so survivors resolve instead of\n"
      "burning their deadlines against stale leases.\n");

  report.write();
  return total_violations == 0 && replay_mismatches == 0 ? 0 : 1;
}
