// Library micro-benchmarks (google-benchmark): the hot paths of the
// substrate — DES event throughput, name/prefix-trie operations, decision
// expression evaluation and planning, TTL-cache operations, and PRNG.
//
// Serial on purpose (ignores DDE_BENCH_JOBS): google-benchmark measures
// wall-clock time per iteration, so concurrent cases would contend.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/stats.h"
#include "obs/bench_report.h"

#include "athena/directory.h"
#include "athena/node.h"
#include "cache/ttl_cache.h"
#include "common/flat_hash.h"
#include "coverage/set_cover.h"
#include "pubsub/utility.h"
#include "common/rng.h"
#include "decision/ordering.h"
#include "decision/planner.h"
#include "des/simulator.h"
#include "naming/prefix_index.h"
#include "net/network.h"
#include "net/packet_queue.h"
#include "world/sensor_field.h"

namespace {

using namespace dde;

void BM_RngUniform(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform());
  }
}
BENCHMARK(BM_RngUniform);

void BM_DesScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    des::Simulator sim;
    for (std::uint64_t i = 0; i < n; ++i) {
      sim.schedule_at(SimTime::micros(static_cast<SimTime::rep>(i * 7 % 1000)),
                      [] {});
    }
    sim.run_until();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_DesScheduleRun)->Arg(1000)->Arg(10000);

void BM_DesSelfScheduling(benchmark::State& state) {
  for (auto _ : state) {
    des::Simulator sim;
    std::function<void()> tick = [&] {
      if (sim.executed_events() < 10000) {
        sim.schedule_after(SimTime::micros(1), tick);
      }
    };
    sim.schedule_at(SimTime::zero(), tick);
    sim.run_until();
    benchmark::DoNotOptimize(sim.now());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_DesSelfScheduling);

void BM_DesCancelChurn(benchmark::State& state) {
  // The watchdog pattern that motivated tombstone cancellation: every
  // timer is re-armed before it fires, so the ladder queue spends its life
  // absorbing cancels and compacting dead slots.
  for (auto _ : state) {
    des::Simulator sim;
    auto watchdog = sim.schedule_at(SimTime::seconds(1), [] {});
    for (int i = 0; i < 10000; ++i) {
      sim.cancel(watchdog);
      watchdog = sim.schedule_at(
          SimTime::seconds(1) +
              SimTime::micros(static_cast<SimTime::rep>(i * 13 % 500)),
          [] {});
    }
    sim.run_until();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_DesCancelChurn);

void BM_FlatPacketQueuePushPop(benchmark::State& state) {
  // Steady-state link queue traffic: priority-mixed pushes against in-order
  // pops, holding ~64 packets in flight.
  net::FlatPacketQueue<int> q;
  Rng rng(10);
  for (int i = 0; i < 64; ++i) {
    q.push(static_cast<int>(rng.below(4)), i);
  }
  for (auto _ : state) {
    q.push(static_cast<int>(rng.below(4)), 0);
    benchmark::DoNotOptimize(q.pop_front());
  }
}
BENCHMARK(BM_FlatPacketQueuePushPop);

void BM_FlatPacketQueueOverloadEvict(benchmark::State& state) {
  // The overload path: every push over the cap evicts the
  // lowest-priority-newest victim (linear max-scan + heap remove).
  net::FlatPacketQueue<int> q;
  Rng rng(11);
  for (int i = 0; i < 64; ++i) {
    q.push(static_cast<int>(rng.below(4)), i);
  }
  for (auto _ : state) {
    q.push(static_cast<int>(rng.below(4)), 0);
    benchmark::DoNotOptimize(q.pop_back());
  }
}
BENCHMARK(BM_FlatPacketQueueOverloadEvict);

naming::Name random_name(Rng& rng, int depth) {
  naming::Name n;
  for (int i = 0; i < depth; ++i) {
    n = n.child(std::string("c") + std::to_string(rng.below(10)));
  }
  return n;
}

void BM_PrefixIndexInsertFind(benchmark::State& state) {
  Rng rng(2);
  std::vector<naming::Name> names;
  for (int i = 0; i < 1000; ++i) names.push_back(random_name(rng, 5));
  for (auto _ : state) {
    naming::PrefixIndex<int> idx;
    for (std::size_t i = 0; i < names.size(); ++i) {
      idx.insert(names[i], static_cast<int>(i));
    }
    int found = 0;
    for (const auto& n : names) {
      if (idx.find(n) != nullptr) ++found;
    }
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_PrefixIndexInsertFind);

void BM_PrefixIndexNearest(benchmark::State& state) {
  Rng rng(3);
  naming::PrefixIndex<int> idx;
  for (int i = 0; i < 1000; ++i) idx.insert(random_name(rng, 5), i);
  std::vector<naming::Name> queries;
  for (int i = 0; i < 100; ++i) queries.push_back(random_name(rng, 5));
  for (auto _ : state) {
    for (const auto& q : queries) {
      benchmark::DoNotOptimize(idx.nearest(q));
    }
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_PrefixIndexNearest);

decision::DnfExpr route_expr(std::size_t disjuncts, std::size_t terms) {
  decision::DnfExpr e;
  std::uint64_t next = 0;
  for (std::size_t d = 0; d < disjuncts; ++d) {
    decision::Conjunction c;
    for (std::size_t t = 0; t < terms; ++t) {
      c.terms.push_back(decision::Term{LabelId{next++}, false});
    }
    e.add_disjunct(std::move(c));
  }
  return e;
}

void BM_ExpressionEvaluate(benchmark::State& state) {
  const auto e = route_expr(5, 7);
  decision::Assignment a;
  Rng rng(4);
  for (std::uint64_t l = 0; l < 35; l += 2) {
    decision::LabelValue v;
    v.label = LabelId{l};
    v.value = rng.chance(0.5) ? Tristate::kTrue : Tristate::kFalse;
    v.evaluated_at = SimTime::zero();
    v.validity = SimTime::seconds(100);
    a.set(v);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.evaluate(a, SimTime::seconds(1)));
  }
}
BENCHMARK(BM_ExpressionEvaluate);

void BM_PlanRetrievalOrder(benchmark::State& state) {
  const auto e = route_expr(5, 7);
  decision::MetaTable meta;
  Rng rng(5);
  for (std::uint64_t l = 0; l < 35; ++l) {
    meta.set(LabelId{l},
             decision::LabelMeta{rng.uniform(0.5, 5.0), SimTime::seconds(1),
                                 rng.uniform(0.1, 0.9),
                                 SimTime::seconds(rng.uniform(30, 300))});
  }
  decision::Assignment a;
  for (auto _ : state) {
    benchmark::DoNotOptimize(decision::plan_retrieval_order(
        e, a, SimTime::zero(), meta.fn(),
        decision::OrderPolicy::kVariationalLvf, SimTime::seconds(100)));
  }
}
BENCHMARK(BM_PlanRetrievalOrder);

void BM_TtlCachePutGet(benchmark::State& state) {
  cache::TtlCache<int, int> c(256);
  Rng rng(6);
  int t = 0;
  for (auto _ : state) {
    const int key = static_cast<int>(rng.below(512));
    ++t;
    c.put(key, key, SimTime::seconds(t + 100), SimTime::seconds(t));
    benchmark::DoNotOptimize(
        c.get(static_cast<int>(rng.below(512)), SimTime::seconds(t),
              SimTime::seconds(t)));
  }
}
BENCHMARK(BM_TtlCachePutGet);

void BM_TtlCacheExpireChurn(benchmark::State& state) {
  // Expiry-dominated traffic: every entry dies by TTL shortly after
  // insertion, so each put's prune pass is doing real collection work.
  // This is the case the lazy expiry heap exists for — the old
  // implementation rescanned the whole map on every put.
  cache::TtlCache<int, int> c(256);
  Rng rng(12);
  int t = 0;
  for (auto _ : state) {
    const int key = static_cast<int>(rng.below(1024));
    ++t;
    c.put(key, key, SimTime::millis(t + 8), SimTime::millis(t));
    benchmark::DoNotOptimize(
        c.get(static_cast<int>(rng.below(1024)), SimTime::millis(t),
              SimTime::millis(t)));
  }
}
BENCHMARK(BM_TtlCacheExpireChurn);

void BM_FlatU64MapChurn(benchmark::State& state) {
  // The athena dedup/interest-table access mix: upsert + point lookup +
  // trailing-window erase, holding ~4k live keys through tombstone churn.
  FlatU64Map<std::uint64_t> m(4096);
  Rng rng(13);
  std::uint64_t k = 0;
  for (int i = 0; i < 4096; ++i) {
    m.insert(k, k);
    ++k;
  }
  for (auto _ : state) {
    m.insert(k, k);
    benchmark::DoNotOptimize(m.find(k - rng.below(4096)));
    m.erase(k - 4096);
    ++k;
  }
}
BENCHMARK(BM_FlatU64MapChurn);

void BM_AthenaQueryInitResolve(benchmark::State& state) {
  // The per-query hot path end to end on a single-node world: pool slot
  // creation, announce dedup, source selection, local retrieval through
  // the object cache, decision evaluation, finish, and slot retirement.
  world::GridMap map{2, 2};
  world::ViabilityProcess truth(
      std::vector<world::SegmentDynamics>(
          map.segment_count(), world::SegmentDynamics{1.0, SimTime::seconds(1e7)}),
      Rng(14));
  world::SensorInfo s0;
  s0.id = SourceId{0};
  s0.name = naming::Name::parse("/b/s0");
  s0.covers = {SegmentId{0}};
  s0.object_bytes = 1000;
  s0.validity = SimTime::seconds(100);
  world::SensorField field(map, truth, {s0});
  net::Topology topo;
  const NodeId n0 = topo.add_node();
  topo.compute_routes();
  des::Simulator sim;
  net::Network net(sim, topo);
  athena::Directory dir(topo, field, {n0}, {{LabelId{0}, 0.9}});
  athena::AthenaMetrics metrics;
  athena::AthenaNode node(n0, net, dir, field, config_for(athena::Scheme::kLvfl),
                          metrics);
  decision::DnfExpr expr;
  expr.add_disjunct(decision::Conjunction{{decision::Term{LabelId{0}, false}}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(node.query_init(expr, SimTime::millis(1)));
    sim.run_until(sim.now() + SimTime::millis(2));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AthenaQueryInitResolve);

void BM_GreedySetCover(benchmark::State& state) {
  Rng rng(7);
  coverage::CoverInstance inst;
  for (std::uint32_t e = 0; e < 40; ++e) inst.universe.push_back(e);
  for (int i = 0; i < 30; ++i) {
    coverage::CoverSet set;
    set.cost = rng.uniform(0.5, 5.0);
    for (std::uint32_t e = 0; e < 40; ++e) {
      if (rng.chance(0.2)) set.elements.push_back(e);
    }
    inst.sets.push_back(std::move(set));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(coverage::greedy_cover(inst));
  }
}
BENCHMARK(BM_GreedySetCover);

void BM_InfomaxTriage(benchmark::State& state) {
  Rng rng(8);
  std::vector<pubsub::Item> items;
  for (int i = 0; i < 64; ++i) {
    pubsub::Item it;
    it.name = naming::Name::parse("/r" + std::to_string(rng.below(6)) +
                                  "/s" + std::to_string(i));
    it.bytes = 20 + rng.below(100);
    it.base_utility = rng.uniform(0.1, 2.0);
    items.push_back(std::move(it));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(pubsub::infomax_triage(items, 1500));
  }
}
BENCHMARK(BM_InfomaxTriage);

void BM_VariationalLvfOrder(benchmark::State& state) {
  Rng rng(9);
  decision::MetaTable meta;
  decision::Conjunction c;
  for (std::uint64_t l = 0; l < 12; ++l) {
    c.terms.push_back(decision::Term{LabelId{l}, false});
    meta.set(LabelId{l},
             decision::LabelMeta{rng.uniform(0.5, 5.0),
                                 SimTime::seconds(rng.uniform(1, 4)),
                                 rng.uniform(0.1, 0.9),
                                 SimTime::seconds(rng.uniform(10, 100))});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(decision::variational_lvf_order(
        c, meta.fn(), SimTime::zero(), SimTime::seconds(60)));
  }
}
BENCHMARK(BM_VariationalLvfOrder);

/// Console output exactly as stock google-benchmark, plus every finished
/// run captured into the machine-readable report (one metric per benchmark
/// under the "micro" scheme, adjusted real time in ns).
class ReportingReporter : public benchmark::ConsoleReporter {
 public:
  explicit ReportingReporter(obs::BenchReport& report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      RunningStats stats;
      stats.add(run.GetAdjustedRealTime());
      report_.add_metric("micro", run.benchmark_name() + "_ns", stats);
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  obs::BenchReport& report_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  dde::obs::BenchReport report("micro_core");
  ReportingReporter reporter(report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  report.write();
  return 0;
}
