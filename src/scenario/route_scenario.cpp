#include "scenario/route_scenario.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "athena/directory.h"
#include "common/contracts.h"
#include "common/rng.h"
#include "des/simulator.h"
#include "net/topology.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "world/dynamics.h"
#include "world/grid_map.h"
#include "world/sensor_field.h"

namespace dde::scenario {
namespace {

/// Connect sensors' host nodes: geometric links within `radius`, then join
/// any remaining components by their closest node pair so the network is
/// always connected.
void build_links(net::Topology& topo, const world::SensorField& field,
                 const ScenarioConfig& cfg) {
  const auto& sensors = field.sensors();
  const std::size_t n = sensors.size();
  auto dist = [&](std::size_t a, std::size_t b) {
    const double dx = sensors[a].x - sensors[b].x;
    const double dy = sensors[a].y - sensors[b].y;
    return std::sqrt(dx * dx + dy * dy);
  };

  // Union-find for connectivity.
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  auto find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (dist(i, j) <= cfg.link_radius) {
        topo.add_link(NodeId{i}, NodeId{j}, cfg.link_bandwidth_bps,
                      cfg.link_latency);
        parent[find(i)] = find(j);
      }
    }
  }
  // Join disconnected components by their closest cross pair.
  for (;;) {
    double best = 0.0;
    std::size_t bi = n;
    std::size_t bj = n;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (find(i) == find(j)) continue;
        const double d = dist(i, j);
        if (bi == n || d < best) {
          best = d;
          bi = i;
          bj = j;
        }
      }
    }
    if (bi == n) break;  // connected
    topo.add_link(NodeId{bi}, NodeId{bj}, cfg.link_bandwidth_bps,
                  cfg.link_latency);
    parent[find(bi)] = find(bj);
  }
}

/// Build one route-finding decision expression: OR over candidate routes of
/// AND(viable(segment)). Prefers route sets whose segments are all covered
/// by some sensor, per the per-segment mask `covered` (otherwise the query
/// may be inherently unresolvable for every scheme).
decision::DnfExpr make_route_query(const world::GridMap& map,
                                   const std::vector<char>& covered,
                                   const ScenarioConfig& cfg, Rng& rng) {
  std::vector<world::Route> chosen;
  for (int attempt = 0; attempt < 40; ++attempt) {
    auto routes = map.random_route_choices(
        cfg.routes_per_query, cfg.min_route_distance, rng, covered);
    if (routes.size() > chosen.size()) chosen = std::move(routes);
    if (chosen.size() >= cfg.routes_per_query) break;
  }
  // Fallback: accept partially covered routes rather than an empty query.
  if (chosen.empty()) {
    chosen = map.random_route_choices(cfg.routes_per_query,
                                      cfg.min_route_distance, rng);
  }

  decision::DnfExpr expr;
  for (const auto& route : chosen) {
    decision::Conjunction c;
    c.terms.reserve(route.segments.size());
    for (SegmentId seg : route.segments) {
      c.terms.push_back(decision::Term{LabelId{seg.value()}, false});
    }
    expr.add_disjunct(std::move(c));
  }
  return expr;
}

/// One in-flight route-scenario run.
///
/// The constructor builds the world, network and nodes and schedules each
/// node's first query; advance()/collect() are the remaining two phases,
/// split out so the ScenarioRunner plugin can drive setup/tick/outcome
/// separately. Members are declared in dependency order, so destruction
/// tears down nodes before the network and simulator they use. The order of
/// the RNG draws below is the trajectory: tests/golden/ pins it, so moving
/// a draw shows up as a golden diff.
class RouteRun {
 public:
  explicit RouteRun(const ScenarioConfig& config);
  RouteRun(const RouteRun&) = delete;
  RouteRun& operator=(const RouteRun&) = delete;

  void advance(SimTime until) { sim_.run_until(until); }

  /// Assemble the result for the run advanced so far (idempotent).
  [[nodiscard]] ScenarioResult collect();

 private:
  /// One node's arrival process. Each node draws its queries from its own
  /// RNG substream and keeps one arrival pending: the next one is drawn
  /// when the current one fires.
  struct Arrivals {
    Rng rng;
    std::size_t drawn = 0;  ///< arrival times drawn so far
    /// kPoisson: the last arrival time. kConcurrent: the last arrival's
    /// position in [0, 1] of issue_jitter, an order statistic.
    double last = 0.0;
  };

  /// Draw node `i`'s next arrival and schedule it (no-op once the node has
  /// drawn queries_per_node of them).
  void schedule_next_arrival(std::size_t i);
  /// Node `i`'s pending arrival fired: draw its query and issue it.
  void arrive(std::size_t i);
  /// Fold a retired query into `totals_` (the nodes' retire hook).
  void retire(const athena::QueryRecord& rec, const decision::DnfExpr& expr);

  ScenarioConfig cfg_;
  Rng rng_;
  std::optional<world::GridMap> map_;
  std::optional<world::ViabilityProcess> truth_;
  std::optional<world::SensorField> field_;
  net::Topology topo_;
  std::vector<NodeId> hosts_;
  des::Simulator sim_;
  std::optional<net::Network> network_;
  std::optional<fault::FaultInjector> injector_;
  std::optional<athena::Directory> directory_;
  athena::AthenaMetrics metrics_;
  std::vector<std::unique_ptr<athena::AthenaNode>> nodes_;
  std::vector<char> covered_;  ///< per segment: does some sensor cover it
  std::vector<Arrivals> arrivals_;
  QueryTotals totals_;
};

RouteRun::RouteRun(const ScenarioConfig& config)
    : cfg_(config), rng_(cfg_.seed) {
  const ScenarioConfig& cfg = cfg_;
  Rng& rng = rng_;

  // --- world ---------------------------------------------------------------
  map_.emplace(cfg.grid_width, cfg.grid_height);
  world::GridMap& map = *map_;
  std::vector<world::SegmentDynamics> dyn(map.segment_count(),
                                          world::SegmentDynamics{
                                              cfg.p_viable, cfg.mean_holding});
  truth_.emplace(std::move(dyn), rng.fork());
  world::ViabilityProcess& truth = *truth_;

  world::SensorFieldConfig field_cfg;
  field_cfg.sensor_count = cfg.node_count;
  field_cfg.coverage_radius = cfg.coverage_radius;
  field_cfg.min_object_bytes = cfg.min_object_bytes;
  field_cfg.max_object_bytes = cfg.max_object_bytes;
  field_cfg.fast_ratio = cfg.fast_ratio;
  field_cfg.slow_validity = cfg.slow_validity;
  field_cfg.fast_validity = cfg.fast_validity;
  field_cfg.reliability = cfg.sensor_reliability;
  field_.emplace(map, truth, field_cfg, rng);
  world::SensorField& field = *field_;

  // --- network ---------------------------------------------------------------
  hosts_.reserve(cfg.node_count);
  for (std::size_t i = 0; i < cfg.node_count; ++i) {
    hosts_.push_back(topo_.add_node());
  }
  build_links(topo_, field, cfg);
  topo_.compute_routes();

  network_.emplace(sim_, topo_);
  net::Network& network = *network_;
  if (cfg.packet_loss > 0.0) {
    network.set_loss_rate(cfg.packet_loss, cfg.seed * 7919 + 13);
  }
  if (cfg.trace_sink != nullptr) network.set_trace_sink(cfg.trace_sink);
  if (cfg.link_queue_max_packets > 0 || cfg.link_queue_max_bytes > 0) {
    network.set_queue_limits(net::QueueLimits{cfg.link_queue_max_packets,
                                              cfg.link_queue_max_bytes});
  }

  // Structured fault injection. Realized from its own RNG streams so that
  // enabling faults or chaos never perturbs world/workload generation, and
  // empty specs construct nothing at all. Chaos churn draws from a third
  // stream: adding churn to a faulted run leaves the FaultSpec schedule
  // itself bit-for-bit unchanged.
  if (!cfg.faults.empty() || !cfg.chaos.empty()) {
    Rng fault_rng(cfg.seed * 6271 + 17);
    fault::FaultPlan plan = cfg.faults.realize(topo_, fault_rng);
    if (!cfg.chaos.empty()) {
      Rng chaos_rng(cfg.seed * 15485863 + 19);
      fault::FaultPlan churn = fault::realize_chaos(cfg.chaos, topo_,
                                                    chaos_rng);
      plan.events.insert(plan.events.end(), churn.events.begin(),
                         churn.events.end());
      if (churn.burst.enabled()) plan.burst = churn.burst;
      // One policy governs the merged plan; a non-empty chaos spec wins.
      plan.restart_policy = churn.restart_policy;
    }
    injector_.emplace(sim_, topo_, network, std::move(plan),
                      cfg.seed * 104729 + 7);
  }

  // --- directory -------------------------------------------------------------
  std::unordered_map<LabelId, double> p_true;
  for (const auto& seg : map.segments()) {
    p_true[LabelId{seg.id.value()}] = truth.params(seg.id).p_viable;
  }
  directory_.emplace(topo_, field, hosts_, std::move(p_true));

  // --- nodes -----------------------------------------------------------------
  athena::AthenaConfig node_cfg =
      cfg.config_override.value_or(athena::config_for(cfg.scheme));
  if (!cfg.config_override) {
    node_cfg.corroboration_confidence = cfg.corroboration_confidence;
    node_cfg.crash_recovery = cfg.fault_crash_recovery;
    node_cfg.recovery_lease = cfg.recovery_lease;
  }
  nodes_.reserve(cfg.node_count);
  for (std::size_t i = 0; i < cfg.node_count; ++i) {
    nodes_.push_back(std::make_unique<athena::AthenaNode>(
        NodeId{i}, network, *directory_, field, node_cfg, metrics_));
    if (cfg.trace_sink != nullptr) {
      nodes_.back()->set_trace_sink(cfg.trace_sink);
    }
    nodes_.back()->set_retire_hook(
        [this](const athena::QueryRecord& rec, const decision::DnfExpr& expr) {
          retire(rec, expr);
        });
  }

  // Crash-faithful restarts: route injector transitions into the protocol
  // layer. Under the default ghost policy the hooks return immediately, so
  // wiring them is free and legacy fault runs stay bit-for-bit identical.
  if (injector_) {
    const fault::RestartPolicy policy = injector_->plan().restart_policy;
    injector_->set_node_hook([this, policy](NodeId node, bool up) {
      if (node.value() >= nodes_.size()) return;
      if (up) {
        nodes_[node.value()]->on_restart(policy);
      } else {
        nodes_[node.value()]->on_crash(policy);
      }
    });
  }

  // --- workload ----------------------------------------------------------------
  covered_.assign(map.segment_count(), 0);
  for (SegmentId s : field.covered_segments()) covered_[s.value()] = 1;
  arrivals_.reserve(cfg.node_count);
  for (std::size_t i = 0; i < cfg.node_count; ++i) {
    arrivals_.push_back(Arrivals{Rng(cfg.seed * 1000003 + 7919 * i + 29)});
    schedule_next_arrival(i);
  }

  // --- disruption --------------------------------------------------------------
  if (cfg.disruption_at > SimTime::zero()) {
    // Choose the affected segments up front (deterministic), apply the
    // physical change and (optionally) the invalidation at the event time.
    std::vector<SegmentId> hit;
    for (SegmentId s : field.covered_segments()) {
      if (rng.chance(cfg.disruption_fraction)) hit.push_back(s);
    }
    // An empty network has no herald node to broadcast the invalidation
    // from; the physical disruption still applies.
    bool broadcast = cfg.broadcast_invalidation;
    DDE_CLAMP_OR(!nodes_.empty() || !broadcast, broadcast = false,
                 "route scenario: broadcast_invalidation needs at least one "
                 "node; disruption applied without a broadcast");
    athena::AthenaNode* herald = nodes_.empty() ? nullptr : nodes_[0].get();
    world::ViabilityProcess* world_truth = &truth;
    sim_.schedule_at(cfg.disruption_at, [hit, herald, world_truth, broadcast,
                                         at = cfg.disruption_at] {
      std::vector<LabelId> labels;
      for (SegmentId s : hit) {
        world_truth->block_after(s, at);
        labels.push_back(LabelId{s.value()});
      }
      if (broadcast && !labels.empty()) {
        herald->broadcast_invalidation(labels);
      }
    });
  }
}

void RouteRun::schedule_next_arrival(std::size_t i) {
  Arrivals& a = arrivals_[i];
  if (a.drawn == cfg_.queries_per_node) return;
  SimTime when;
  switch (cfg_.arrival) {
    case ScenarioConfig::Arrival::kConcurrent: {
      // The next smallest of the node's remaining uniforms over [last, 1].
      const double remaining =
          static_cast<double>(cfg_.queries_per_node - a.drawn);
      a.last = 1.0 - (1.0 - a.last) * std::pow(a.rng.uniform(),
                                               1.0 / remaining);
      when = SimTime::micros(static_cast<SimTime::rep>(
          a.last * static_cast<double>(cfg_.issue_jitter.count())));
      break;
    }
    case ScenarioConfig::Arrival::kPoisson:
      a.last += a.rng.exponential(cfg_.mean_interarrival.to_seconds());
      when = SimTime::seconds(a.last);
      break;
    case ScenarioConfig::Arrival::kPeriodic:
      when = cfg_.mean_interarrival * static_cast<SimTime::rep>(a.drawn) +
             SimTime::micros(static_cast<SimTime::rep>(
                 a.rng.uniform() *
                 static_cast<double>(cfg_.issue_jitter.count())));
      break;
  }
  ++a.drawn;
  sim_.schedule_at(when, [this, i] { arrive(i); });
}

void RouteRun::arrive(std::size_t i) {
  Rng& rng = arrivals_[i].rng;
  decision::DnfExpr expr = make_route_query(*map_, covered_, cfg_, rng);
  const int priority =
      cfg_.critical_fraction > 0.0 && rng.chance(cfg_.critical_fraction)
          ? cfg_.critical_priority
          : 0;
  if (!expr.empty()) {
    ++(priority > 0 ? totals_.critical : totals_.normal).issued;
    nodes_[i]->query_init(std::move(expr), cfg_.query_deadline, priority);
  }
  schedule_next_arrival(i);
}

void RouteRun::retire(const athena::QueryRecord& rec,
                      const decision::DnfExpr& expr) {
  QueryTotals::Class& cls =
      rec.priority > 0 ? totals_.critical : totals_.normal;
  const double latency_s =
      rec.success() ? (rec.finished_at - rec.issued_at).to_seconds() : 0.0;
  cls.decided += rec.success() ? 1 : 0;
  cls.shed += rec.outcome == athena::Outcome::kShed ? 1 : 0;
  cls.crashed += rec.outcome == athena::Outcome::kCrashed ? 1 : 0;
  cls.latency_s += latency_s;

  // Audit a committed route against ground truth at decision time: every
  // segment of it must have been viable. Each segment's track draws from
  // its own memoised RNG, so reading it now changes nothing.
  const bool audited = rec.chosen_action.has_value();
  const bool correct =
      audited && std::ranges::all_of(
                     expr.disjuncts()[*rec.chosen_action].terms,
                     [&](const decision::Term& term) {
                       return truth_->viable_at(SegmentId{term.label.value()},
                                                rec.finished_at) !=
                              term.negated;
                     });
  const bool before = rec.finished_at < cfg_.disruption_at;
  totals_.audited += audited ? 1 : 0;
  totals_.correct += correct ? 1 : 0;
  totals_.audited_before += audited && before ? 1 : 0;
  totals_.correct_before += correct && before ? 1 : 0;
  totals_.declined += rec.success() && !audited ? 1 : 0;

  fault::ReplayDigest& d = totals_.digest;
  d.fold(static_cast<std::uint64_t>(rec.priority));
  d.fold(static_cast<std::uint64_t>(rec.outcome));
  d.fold(latency_s);
  d.fold(rec.issued_at.to_seconds());
  d.fold(rec.success() ? rec.finished_at.to_seconds() : 0.0);
  d.fold(static_cast<std::uint64_t>(audited));
  d.fold(static_cast<std::uint64_t>(correct));
}

ScenarioResult RouteRun::collect() {
  ScenarioResult result;
  result.metrics = metrics_;
  result.traffic = network_->stats();
  result.metrics.link_down_drops = network_->stats().link_down_drops;
  result.metrics.queue_drops = network_->stats().queue_drops;
  if (injector_) {
    result.faults = injector_->stats();
    result.metrics.reroutes = injector_->stats().reroutes;
  }
  result.events = sim_.executed_events();
  result.queries = totals_.normal.issued + totals_.critical.issued;
  result.totals = totals_;

  // Residual-state probes for the chaos harness's quiesce-point invariant
  // check (cheap counts; harmless to fill on every collect).
  result.probes.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    fault::NodeStateProbe p;
    p.node = node->id().value();
    p.active_queries = node->active_queries();
    p.interest_entries = node->interest_entries();
    p.forwarded_entries = node->forwarded_entries();
    p.dedup_entries = node->dedup_entries();
    result.probes.push_back(p);
  }
  return result;
}

// --- the "route" plugin ----------------------------------------------------

bool parse_scheme(const std::string& v, athena::Scheme* out) {
  if (v == "cmp") *out = athena::Scheme::kCmp;
  else if (v == "slt") *out = athena::Scheme::kSlt;
  else if (v == "lcf") *out = athena::Scheme::kLcf;
  else if (v == "lvf") *out = athena::Scheme::kLvf;
  else if (v == "lvfl") *out = athena::Scheme::kLvfl;
  else return false;
  return true;
}

std::string arrival_name(ScenarioConfig::Arrival a) {
  switch (a) {
    case ScenarioConfig::Arrival::kConcurrent: return "concurrent";
    case ScenarioConfig::Arrival::kPoisson: return "poisson";
    case ScenarioConfig::Arrival::kPeriodic: return "periodic";
  }
  return "?";
}

/// The "route" plugin's spec schema over a config instance. The binder
/// holds pointers into `cfg`: it must not outlive it.
SpecBinder route_binder(ScenarioConfig& cfg) {
  SpecBinder b;
  b.bind("grid_width", &cfg.grid_width);
  b.bind("grid_height", &cfg.grid_height);
  b.bind("p_viable", &cfg.p_viable);
  b.bind_seconds("mean_holding_s", &cfg.mean_holding);
  b.bind("node_count", &cfg.node_count);
  b.bind("coverage_radius", &cfg.coverage_radius);
  b.bind("min_object_bytes", &cfg.min_object_bytes);
  b.bind("max_object_bytes", &cfg.max_object_bytes);
  b.bind("fast_ratio", &cfg.fast_ratio);
  b.bind_seconds("slow_validity_s", &cfg.slow_validity);
  b.bind_seconds("fast_validity_s", &cfg.fast_validity);
  b.bind("sensor_reliability", &cfg.sensor_reliability);
  b.bind("corroboration_confidence", &cfg.corroboration_confidence);
  b.bind("link_bandwidth_bps", &cfg.link_bandwidth_bps);
  b.bind_seconds("link_latency_s", &cfg.link_latency);
  b.bind("link_radius", &cfg.link_radius);
  b.bind("packet_loss", &cfg.packet_loss);
  b.bind("link_queue_max_packets", &cfg.link_queue_max_packets);
  b.bind("link_queue_max_bytes", &cfg.link_queue_max_bytes);
  b.bind("queries_per_node", &cfg.queries_per_node);
  b.bind("routes_per_query", &cfg.routes_per_query);
  b.bind("min_route_distance", &cfg.min_route_distance);
  b.bind_seconds("query_deadline_s", &cfg.query_deadline);
  b.bind_enum(
      "arrival", [&cfg] { return arrival_name(cfg.arrival); },
      [&cfg](const std::string& v) {
        if (v == "concurrent") cfg.arrival = ScenarioConfig::Arrival::kConcurrent;
        else if (v == "poisson") cfg.arrival = ScenarioConfig::Arrival::kPoisson;
        else if (v == "periodic") cfg.arrival = ScenarioConfig::Arrival::kPeriodic;
        else return false;
        return true;
      });
  b.bind_seconds("issue_jitter_s", &cfg.issue_jitter);
  b.bind_seconds("mean_interarrival_s", &cfg.mean_interarrival);
  b.bind_seconds("horizon_s", &cfg.horizon);
  b.bind("critical_fraction", &cfg.critical_fraction);
  b.bind("critical_priority", &cfg.critical_priority);
  b.bind_seconds("disruption_at_s", &cfg.disruption_at);
  b.bind("disruption_fraction", &cfg.disruption_fraction);
  b.bind("broadcast_invalidation", &cfg.broadcast_invalidation);
  // Structured fault injection (scalar knobs; the burst channel stays
  // typed-only).
  b.bind("fault_link_outage_fraction", &cfg.faults.link_outage_fraction);
  b.bind_seconds("fault_outage_at_s", &cfg.faults.outage_at);
  b.bind_seconds("fault_outage_duration_s", &cfg.faults.outage_duration);
  b.bind("fault_crash_fraction", &cfg.faults.node_crash_fraction);
  b.bind_seconds("fault_crash_at_s", &cfg.faults.crash_at);
  b.bind_seconds("fault_crash_duration_s", &cfg.faults.crash_duration);
  b.bind_enum(
      "fault_restart_policy",
      [&cfg] { return std::string(fault::to_string(cfg.faults.restart_policy)); },
      [&cfg](const std::string& v) {
        return fault::parse_restart_policy(v, &cfg.faults.restart_policy);
      });
  b.bind("fault_crash_recovery", &cfg.fault_crash_recovery);
  b.bind_seconds("fault_recovery_lease_s", &cfg.recovery_lease);
  // Seeded chaos churn (chaos.spare_node0 and chaos.burst stay typed-only).
  b.bind_seconds("chaos_window_start_s", &cfg.chaos.window_start);
  b.bind_seconds("chaos_window_end_s", &cfg.chaos.window_end);
  b.bind("chaos_crashes_per_node_min", &cfg.chaos.crashes_per_node_min);
  b.bind_seconds("chaos_min_downtime_s", &cfg.chaos.min_downtime);
  b.bind_seconds("chaos_max_downtime_s", &cfg.chaos.max_downtime);
  b.bind("chaos_flaps_per_link_min", &cfg.chaos.flaps_per_link_min);
  b.bind_seconds("chaos_min_flap_s", &cfg.chaos.min_flap);
  b.bind_seconds("chaos_max_flap_s", &cfg.chaos.max_flap);
  b.bind_enum(
      "chaos_restart_policy",
      [&cfg] { return std::string(fault::to_string(cfg.chaos.restart_policy)); },
      [&cfg](const std::string& v) {
        return fault::parse_restart_policy(v, &cfg.chaos.restart_policy);
      });
  b.bind("run_to_quiescence", &cfg.run_to_quiescence);
  b.bind_enum(
      "scheme", [&cfg] { return std::string(to_string(cfg.scheme)); },
      [&cfg](const std::string& v) { return parse_scheme(v, &cfg.scheme); });
  return b;
}

class RouteScenarioRunner final : public ScenarioRunner {
 public:
  [[nodiscard]] const ScenarioMetadata& metadata() const override {
    static const ScenarioMetadata meta{
        "route",
        "Post-disaster route assessment on a Manhattan grid (paper Sec. VII)",
        "evaluation"};
    return meta;
  }

  [[nodiscard]] ScenarioSpec spec() const override {
    ScenarioConfig copy = cfg_;
    return route_binder(copy).to_spec();
  }

  void configure(const ScenarioSpec& spec) override {
    DDE_CHECK(run_ == nullptr,
              "route scenario: configure() between setup() and reset()");
    route_binder(cfg_).apply(spec);
  }

  void setup(std::uint64_t seed) override {
    cfg_.seed = seed;
    run_ = std::make_unique<RouteRun>(cfg_);
  }

  void tick(SimTime until) override {
    DDE_CHECK(run_ != nullptr, "route scenario: tick() before setup()");
    run_->advance(until);
  }

  [[nodiscard]] SimTime horizon() const override { return cfg_.horizon; }

  [[nodiscard]] ScenarioOutcome outcome() override {
    DDE_CHECK(run_ != nullptr, "route scenario: outcome() before setup()");
    const ScenarioResult r = run_->collect();
    ScenarioOutcome out;
    out.metrics["queries"] = static_cast<double>(r.queries);
    out.metrics["queries_resolved"] =
        static_cast<double>(r.metrics.queries_resolved);
    out.metrics["queries_failed"] =
        static_cast<double>(r.metrics.queries_failed);
    out.metrics["resolution_ratio"] = r.resolution_ratio();
    out.metrics["mean_latency_s"] = r.metrics.mean_latency_s();
    out.metrics["total_megabytes"] = r.total_megabytes();
    out.metrics["decision_accuracy"] = r.decision_accuracy();
    out.metrics["decisions_audited"] = static_cast<double>(r.totals.audited);
    out.metrics["events"] = static_cast<double>(r.events);
    out.metrics["refetches"] = static_cast<double>(r.metrics.refetches);
    out.metrics["retries"] = static_cast<double>(r.metrics.retries);
    out.metrics["failovers"] = static_cast<double>(r.metrics.failovers);
    out.metrics["crashed_queries"] =
        static_cast<double>(r.metrics.queries_failed_crash);
    out.metrics["node_restarts"] =
        static_cast<double>(r.metrics.node_restarts);
    out.metrics["recovery_time_s"] = r.metrics.mean_recovery_time_s();
    return out;
  }

  void reset() override { run_.reset(); }

 private:
  ScenarioConfig cfg_;
  std::unique_ptr<RouteRun> run_;
};

}  // namespace

ScenarioResult run_route_scenario(const ScenarioConfig& cfg) {
  RouteRun run(cfg);
  run.advance(cfg.horizon);
  // Quiesce point: the workload is finite and every recurring callback
  // (GC, pump, watchdogs) terminates once its state drains, so running to
  // SimTime::max() executes every pending event and then stops.
  if (cfg.run_to_quiescence) run.advance(SimTime::max());
  return run.collect();
}

ScenarioConfig route_config_from_spec(const ScenarioSpec& spec) {
  ScenarioConfig cfg;
  route_binder(cfg).apply(spec);
  return cfg;
}

void register_route_scenario() {
  static const bool once = [] {
    register_scenario("route", +[]() -> std::unique_ptr<ScenarioRunner> {
      return std::make_unique<RouteScenarioRunner>();
    });
    return true;
  }();
  (void)once;
}

}  // namespace dde::scenario
