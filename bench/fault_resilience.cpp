// Fault injection (src/fault): resolution under link outages and bursty loss.
//
// Part 1 downs a fraction of links mid-run (permanently — an "aftershock"
// severing the mesh) and lets the recovery machinery work: routes are
// recomputed around the outage, timed-out requests back off exponentially,
// and sources that stay silent for max_source_attempts are failed over to
// the next covering candidate. Part 2 holds the average loss rate fixed and
// sweeps the mean burst length of a Gilbert–Elliott channel: bursty loss
// kills a request AND its retry, so it stresses the backoff policy in a way
// independent per-packet loss does not.
#include <cstdio>

#include "bench_util.h"
#include "fault/fault_plan.h"
#include "scenario/spec.h"

int main(int argc, char** argv) {
  using namespace dde;
  const int seeds = argc > 1 ? std::atoi(argv[1]) : 10;

  // Recovery knobs shared by both parts: the loss_resilience timeout so
  // retries fit the deadline, doubling backoff, failover after 3 silences.
  auto recovery_config = [](athena::Scheme scheme) {
    auto ac = athena::config_for(scheme);
    ac.request_timeout = SimTime::seconds(30);
    ac.retry_backoff = 2.0;
    ac.max_source_attempts = 3;
    return ac;
  };

  // Spec-portable knobs go through the scenario registry's declarative
  // path; typed-only knobs (config_override, fault spec) are layered on
  // the returned config afterwards.
  auto base_config = [&](athena::Scheme scheme) {
    scenario::ScenarioSpec spec;
    spec.set("scheme", std::string(to_string(scheme)));
    spec.set("fast_ratio", 0.2);
    auto cfg = scenario::route_config_from_spec(spec);
    cfg.config_override = recovery_config(scheme);
    return cfg;
  };

  std::printf("FAULT RESILIENCE — link outages and bursty loss (%d seeds)\n",
              seeds);
  std::printf(
      "(outage at t=30 s, permanent; backoff x2, failover after 3 tries)\n\n");

  // --- part 1: outage-fraction sweep ------------------------------------
  std::printf("link outage fraction sweep — resolution ratio\n");
  std::printf("%-6s %8s %8s %8s %8s | %8s %8s %8s %8s %8s\n", "scheme",
              "f=0", "f=0.1", "f=0.2", "f=0.3", "MB@.2", "retry@.2",
              "fail@.2", "rert@.2", "drop@.2");
  for (athena::Scheme scheme : bench::all_schemes()) {
    std::printf("%-6s", std::string(to_string(scheme)).c_str());
    double mb = 0;
    double retries = 0;
    double failovers = 0;
    double reroutes = 0;
    double drops = 0;
    for (double frac : {0.0, 0.1, 0.2, 0.3}) {
      RunningStats ratio;
      scenario::ScenarioConfig cfg = base_config(scheme);
      cfg.faults.link_outage_fraction = frac;
      cfg.faults.outage_at = SimTime::seconds(30);
      for (const auto& r : bench::run_seeds(cfg, seeds)) {
        ratio.add(r.resolution_ratio());
        if (frac == 0.2) {
          mb += r.total_megabytes() / seeds;
          retries += static_cast<double>(r.metrics.retries) / seeds;
          failovers += static_cast<double>(r.metrics.failovers) / seeds;
          reroutes += static_cast<double>(r.metrics.reroutes) / seeds;
          drops += static_cast<double>(r.metrics.link_down_drops) / seeds;
        }
      }
      std::printf(" %8.3f", ratio.mean());
    }
    std::printf(" | %8.1f %8.1f %8.1f %8.1f %8.1f\n", mb, retries, failovers,
                reroutes, drops);
  }

  // --- part 2: burstiness sweep at fixed 5% average loss -----------------
  std::printf(
      "\nburst length sweep — resolution ratio at 5%% average loss\n");
  std::printf("%-6s %8s %8s %8s %8s\n", "scheme", "iid", "L=2", "L=8",
              "L=32");
  for (athena::Scheme scheme : bench::all_schemes()) {
    std::printf("%-6s", std::string(to_string(scheme)).c_str());
    for (double burst_len : {1.0, 2.0, 8.0, 32.0}) {
      RunningStats ratio;
      scenario::ScenarioConfig cfg = base_config(scheme);
      cfg.faults.burst =
          fault::GilbertElliottParams::for_average_loss(0.05, burst_len);
      for (const auto& r : bench::run_seeds(cfg, seeds)) {
        ratio.add(r.resolution_ratio());
      }
      std::printf(" %8.3f", ratio.mean());
    }
    std::printf("\n");
  }

  std::printf(
      "\nwith a fifth of the links severed, set-cover schemes reroute and\n"
      "fail over to surviving sources; batch flooding (cmp) loses whole\n"
      "request fan-outs to downed links and pays the most bandwidth for\n"
      "the least recovery. longer bursts at equal average loss hurt more:\n"
      "back-to-back losses defeat a retry unless the backoff outgrows the\n"
      "burst.\n");
  return 0;
}
