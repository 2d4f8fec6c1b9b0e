// Failure injection: resolution under per-packet link loss.
//
// Lost requests and replies are recovered by the request-timeout watchdog
// (the origin re-issues after AthenaConfig::request_timeout). Sequential
// decision-driven schemes pay one stalled pipeline slot per loss; batch
// schemes have more requests in flight and absorb losses more smoothly —
// but at their usual bandwidth premium. The experiment sweeps the loss
// rate and reports resolution ratio / bandwidth / latency per scheme.
#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace dde;
  const int seeds = argc > 1 ? std::atoi(argv[1]) : 10;

  std::printf("LOSS RESILIENCE — per-packet loss sweep (%d seeds)\n", seeds);
  std::printf("(request timeout lowered to 30 s so retries fit the deadline)\n\n");
  std::printf("%-6s %8s %8s %8s %8s | %10s %8s\n", "scheme", "p=0",
              "p=0.01", "p=0.05", "p=0.10", "MB@0.05", "drop@.05");

  for (athena::Scheme scheme : bench::all_schemes()) {
    std::printf("%-6s", std::string(to_string(scheme)).c_str());
    double mb_at_5 = 0;
    double drops_at_5 = 0;
    for (double loss : {0.0, 0.01, 0.05, 0.10}) {
      RunningStats ratio;
      scenario::ScenarioConfig cfg;
      cfg.scheme = scheme;
      cfg.fast_ratio = 0.2;
      cfg.packet_loss = loss;
      auto ac = athena::config_for(scheme);
      ac.request_timeout = SimTime::seconds(30);
      cfg.config_override = ac;
      for (const auto& r : bench::run_seeds(cfg, seeds)) {
        ratio.add(r.resolution_ratio());
        if (loss == 0.05) {
          mb_at_5 += r.total_megabytes() / seeds;
          drops_at_5 += static_cast<double>(r.traffic.dropped) / seeds;
        }
      }
      std::printf(" %8.3f", ratio.mean());
    }
    std::printf(" | %10.1f %8.1f\n", mb_at_5, drops_at_5);
  }
  std::printf(
      "\nresolution degrades gracefully with loss; timeouts re-issue lost\n"
      "requests, trading latency (and some duplicate traffic) for delivery.\n");
  return 0;
}
