// Library micro-benchmarks (google-benchmark): the hot paths of the
// substrate — DES event throughput, network hops, name/prefix-trie
// operations, decision expression evaluation and planning, TTL-cache
// operations, route-query drawing, and PRNG.
//
// Serial on purpose (ignores DDE_BENCH_JOBS): google-benchmark measures
// wall-clock time per iteration, so concurrent cases would contend.
#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "obs/bench_report.h"

#include "athena/directory.h"
#include "athena/node.h"
#include "cache/ttl_cache.h"
#include "common/flat_hash.h"
#include "common/slot_heap.h"
#include "coverage/set_cover.h"
#include "pubsub/utility.h"
#include "common/rng.h"
#include "decision/ordering.h"
#include "decision/planner.h"
#include "des/simulator.h"
#include "naming/prefix_index.h"
#include "net/network.h"
#include "net/topology.h"
#include "world/grid_map.h"
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

void BM_LinkQueuePushPop(benchmark::State& state) {
  // Steady-state link queue traffic: priority-mixed pushes against in-order
  // pops, holding ~64 packets in flight (key -priority, seq arrival order,
  // as in net::Network).
  SlotHeap<int> q;
  Rng rng(10);
  std::uint64_t arrivals = 0;
  for (int i = 0; i < 64; ++i) {
    q.push(-static_cast<std::int64_t>(rng.below(4)), arrivals++, i);
  }
  for (auto _ : state) {
    q.push(-static_cast<std::int64_t>(rng.below(4)), arrivals++, 0);
    benchmark::DoNotOptimize(q.pop());
  }
}
BENCHMARK(BM_LinkQueuePushPop);

void BM_LinkQueueOverloadEvict(benchmark::State& state) {
  // The overload path: every push over the cap evicts the
  // lowest-priority-newest victim (linear max-scan + heap remove).
  SlotHeap<int> q;
  Rng rng(11);
  std::uint64_t arrivals = 0;
  for (int i = 0; i < 64; ++i) {
    q.push(-static_cast<std::int64_t>(rng.below(4)), arrivals++, i);
  }
  for (auto _ : state) {
    q.push(-static_cast<std::int64_t>(rng.below(4)), arrivals++, 0);
    benchmark::DoNotOptimize(q.remove_max());
  }
}
BENCHMARK(BM_LinkQueueOverloadEvict);

/// One packet's trip down an 8-node line: 1 KB relayed hop by hop by the
/// nodes' receive handlers, so each iteration is seven network hops and
/// fourteen DES events (a transmit completion and an arrival per hop), the
/// path every Athena message takes.
void BM_NetworkHop(benchmark::State& state) {
  net::Topology topo;
  std::vector<NodeId> line;
  for (int i = 0; i < 8; ++i) line.push_back(topo.add_node());
  for (std::size_t i = 1; i < line.size(); ++i) {
    topo.add_link(line[i - 1], line[i], 1e8, SimTime::millis(1));
  }
  topo.compute_routes();
  des::Simulator sim;
  net::Network net(sim, topo);
  std::int64_t arrived = 0;
  for (std::size_t i = 0; i < line.size(); ++i) {
    net.set_handler(line[i], [&, i](NodeId self, const net::Packet& p) {
      if (i + 1 == line.size()) {
        ++arrived;
        return;
      }
      net::Packet relay = p;
      net.send(self, line[i + 1], std::move(relay));
    });
  }
  std::uint64_t seq = 0;
  for (auto _ : state) {
    net::Packet p;
    p.bytes = 1024;
    p.payload = seq++;
    net.send(line[0], line[1], std::move(p));
    sim.run_until();
  }
  if (arrived != static_cast<std::int64_t>(state.iterations())) {
    state.SkipWithError("BM_NetworkHop: a packet did not reach the far end");
  }
  state.SetItemsProcessed(state.iterations() * 7);
}
BENCHMARK(BM_NetworkHop);

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
  // One put and one lookup (peek, the only lookup the caches have) per
  // iteration.
  cache::TtlCache<int, int> c(256);
  Rng rng(6);
  int t = 0;
  for (auto _ : state) {
    const int key = static_cast<int>(rng.below(512));
    ++t;
    c.put(key, key, SimTime::seconds(t + 100), SimTime::seconds(t));
    benchmark::DoNotOptimize(
        c.peek(static_cast<int>(rng.below(512)), SimTime::seconds(t)));
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
        c.peek(static_cast<int>(rng.below(1024)), SimTime::millis(t)));
  }
}
BENCHMARK(BM_TtlCacheExpireChurn);

void BM_FlatU64MapChurn(benchmark::State& state) {
  // The athena dedup/interest-table access mix: upsert + point lookup +
  // trailing-window erase, holding ~4k live keys through tombstone churn.
  FlatU64Map<std::uint64_t> m;
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
  // creation, source selection, local retrieval through the object cache,
  // decision evaluation, finish, and slot retirement.
  world::GridMap map{2, 2};
  world::ViabilityProcess truth(
      std::vector<world::SegmentDynamics>(
          map.segment_count(), world::SegmentDynamics{1.0, SimTime::seconds(1e7)}),
      Rng(14));
  world::SensorInfo s0;
  s0.id = SourceId{0};
  s0.covers = {SegmentId{0}};
  s0.object_bytes = 1000;
  s0.validity = SimTime::seconds(100);
  world::SensorField field(map, truth, {s0});
  net::Topology topo;
  const NodeId n0 = topo.add_node();
  topo.compute_routes();
  des::Simulator sim;
  net::Network net(sim, topo);
  athena::Directory dir(topo, field, {n0}, {0.9});
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

/// One decision whose evidence lives five hops away: a line of six nodes
/// with an 8-segment sensor at the far end. Each query is issued after the
/// previous capture, and the labels annotated from it, expired, so its
/// request crosses every hop, a fresh object comes back through five relay
/// caches, and the origin's label share travels back to the host.
void BM_ObjectRelay(benchmark::State& state) {
  world::GridMap map{4, 4};
  world::ViabilityProcess truth(
      std::vector<world::SegmentDynamics>(
          map.segment_count(), world::SegmentDynamics{1.0, SimTime::seconds(1e7)}),
      Rng(15));
  world::SensorInfo s0;
  s0.id = SourceId{0};
  for (std::uint64_t seg = 0; seg < 8; ++seg) {
    s0.covers.push_back(SegmentId{seg});
  }
  s0.object_bytes = 100 * 1024;
  s0.validity = SimTime::seconds(1);
  world::SensorField field(map, truth, {s0});
  net::Topology topo;
  std::vector<NodeId> line;
  for (int i = 0; i < 6; ++i) line.push_back(topo.add_node());
  for (std::size_t i = 1; i < line.size(); ++i) {
    topo.add_link(line[i - 1], line[i], 1e8, SimTime::millis(1));
  }
  topo.compute_routes();
  des::Simulator sim;
  net::Network net(sim, topo);
  athena::Directory dir(topo, field, {line.back()},
                        std::vector<double>(8, 0.9));
  athena::AthenaMetrics metrics;
  std::vector<std::unique_ptr<athena::AthenaNode>> nodes;
  for (const NodeId n : line) {
    nodes.push_back(std::make_unique<athena::AthenaNode>(
        n, net, dir, field, config_for(athena::Scheme::kLvfl), metrics));
  }
  decision::DnfExpr expr;
  expr.add_disjunct(decision::Conjunction{{decision::Term{LabelId{3}, false}}});
  SimTime issue_at = SimTime::zero();
  for (auto _ : state) {
    issue_at = issue_at + SimTime::seconds(2);
    sim.schedule_at(issue_at, [&] {
      benchmark::DoNotOptimize(nodes.front()->query_init(expr, SimTime::seconds(1)));
    });
    sim.run_until(issue_at + SimTime::seconds(1));
  }
  if (metrics.queries_resolved != metrics.queries_issued ||
      metrics.sensor_samples != metrics.queries_issued ||
      metrics.label_bytes == 0) {
    state.SkipWithError(
        "BM_ObjectRelay: a query did not fetch a fresh capture and share it");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObjectRelay);

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

/// Source selection for one route query: `sensors` sensors on a
/// `grid`x`grid` map (coverage radius 1.25, nodes at the sensors, linked
/// within 2.2 grid units plus a chain so every node is reachable), and the
/// labels of the first draw of five candidate routes that number at least
/// `min_labels`.
void select_sources_bench(benchmark::State& state, int grid,
                          std::size_t sensors, std::size_t min_labels) {
  const world::GridMap map(grid, grid);
  world::ViabilityProcess truth(
      std::vector<world::SegmentDynamics>(
          map.segment_count(),
          world::SegmentDynamics{0.75, SimTime::seconds(900)}),
      Rng(15));
  world::SensorFieldConfig field_cfg;
  field_cfg.sensor_count = sensors;
  field_cfg.coverage_radius = 1.25;
  Rng rng(16);
  const world::SensorField field(map, truth, field_cfg, rng);
  net::Topology topo;
  std::vector<NodeId> hosts;
  for (std::size_t i = 0; i < field.sensors().size(); ++i) {
    hosts.push_back(topo.add_node());
  }
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const auto& a = field.sensors()[i];
    for (std::size_t j = i + 1; j < hosts.size(); ++j) {
      const auto& b = field.sensors()[j];
      if (j == i + 1 || std::hypot(a.x - b.x, a.y - b.y) <= 2.2) {
        topo.add_link(hosts[i], hosts[j]);
      }
    }
  }
  topo.compute_routes();
  const athena::Directory dir(topo, field, hosts, {});
  std::vector<char> covered(map.segment_count(), 0);
  for (SegmentId seg : field.covered_segments()) covered[seg.value()] = 1;
  std::vector<LabelId> labels;
  while (labels.size() < min_labels) {
    decision::DnfExpr expr;
    for (const auto& route : map.random_route_choices(5, 4, rng, covered)) {
      decision::Conjunction c;
      for (SegmentId seg : route.segments) {
        c.terms.push_back(decision::Term{LabelId{seg.value()}, false});
      }
      expr.add_disjunct(std::move(c));
    }
    labels = expr.all_labels();
  }
  state.counters["labels"] = static_cast<double>(labels.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(dir.select_sources(labels, hosts[0], true));
  }
}

/// Shaped like city's queries: 160 sensors on a 20x20 grid, 41 labels.
void BM_SelectSources(benchmark::State& state) {
  select_sources_bench(state, 20, 160, 36);
}
BENCHMARK(BM_SelectSources);

/// Shaped like the paper's setup (bench/fig2_resolution_ratio): 30 sensors
/// on an 8x8 grid, 23 labels (paper queries average 18.4).
void BM_SelectSourcesPaper(benchmark::State& state) {
  select_sources_bench(state, 8, 30, 16);
}
BENCHMARK(BM_SelectSourcesPaper);

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

/// One draw of a route query's candidates on the city grid (20x20, k = 5,
/// min distance 4), filtered by a fixed mask that covers ~90% of the
/// segments, about what city's 160 sensors cover.
void BM_RouteChoices(benchmark::State& state) {
  const world::GridMap map(20, 20);
  Rng mask_rng(10);
  std::vector<char> covered(map.segment_count());
  for (char& c : covered) c = mask_rng.chance(0.9) ? 1 : 0;
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.random_route_choices(5, 4, rng, covered));
  }
}
BENCHMARK(BM_RouteChoices);

/// One route query's full draw on the paper's setup: best of up to 40
/// route-choices draws (k = 5, min distance 4) on an 8x8 grid under the
/// sparse mask that 30 sensors of coverage radius 1.25 leave.
void BM_RouteQuery(benchmark::State& state) {
  const world::GridMap map(8, 8);
  world::ViabilityProcess truth(
      std::vector<world::SegmentDynamics>(
          map.segment_count(),
          world::SegmentDynamics{0.75, SimTime::seconds(900)}),
      Rng(15));
  world::SensorFieldConfig field_cfg;
  field_cfg.sensor_count = 30;
  field_cfg.coverage_radius = 1.25;
  Rng rng(12);
  const world::SensorField field(map, truth, field_cfg, rng);
  std::vector<char> covered(map.segment_count(), 0);
  for (SegmentId seg : field.covered_segments()) covered[seg.value()] = 1;
  world::RouteQueryDraw draw;
  for (auto _ : state) {
    map.draw_route_query(5, 4, rng, covered, draw);
    benchmark::DoNotOptimize(draw.best.keys.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RouteQuery);

/// City's network: 160 sensors placed on a 20x20 grid, linked within
/// radius 2.2 (the component joins are left out). With `two_classes`, every
/// other link runs at 2 Mbps instead of 1 Mbps.
net::Topology city_topology(bool two_classes) {
  const world::GridMap map(20, 20);
  world::ViabilityProcess truth(
      std::vector<world::SegmentDynamics>(
          map.segment_count(),
          world::SegmentDynamics{0.75, SimTime::seconds(900)}),
      Rng(16));
  world::SensorFieldConfig field_cfg;
  field_cfg.sensor_count = 160;
  Rng rng(13);
  const world::SensorField field(map, truth, field_cfg, rng);
  const auto& sensors = field.sensors();
  net::Topology topo;
  for (std::size_t i = 0; i < sensors.size(); ++i) topo.add_node();
  for (std::size_t i = 0; i < sensors.size(); ++i) {
    for (std::size_t j = i + 1; j < sensors.size(); ++j) {
      if (std::hypot(sensors[i].x - sensors[j].x,
                     sensors[i].y - sensors[j].y) > 2.2) {
        continue;
      }
      const bool fast = two_classes && topo.link_count() % 4 == 2;
      topo.add_link(NodeId{i}, NodeId{j}, fast ? 2e6 : 1e6,
                    SimTime::millis(2));
    }
  }
  return topo;
}

/// All-pairs route tables for city's network, every link equal: the
/// breadth-first pass.
void BM_ComputeRoutesGrid(benchmark::State& state) {
  net::Topology topo = city_topology(false);
  for (auto _ : state) {
    topo.compute_routes();
    benchmark::DoNotOptimize(topo.next_hop(NodeId{0}, NodeId{159}));
  }
}
BENCHMARK(BM_ComputeRoutesGrid);

/// The same network with two link classes: the heap Dijkstra pass.
void BM_ComputeRoutesWeighted(benchmark::State& state) {
  net::Topology topo = city_topology(true);
  for (auto _ : state) {
    topo.compute_routes();
    benchmark::DoNotOptimize(topo.next_hop(NodeId{0}, NodeId{159}));
  }
}
BENCHMARK(BM_ComputeRoutesWeighted);

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
