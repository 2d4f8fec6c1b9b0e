#include "scenario/route_scenario.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/contracts.h"
#include "common/rng.h"
#include "scenario/plugin.h"
#include "scenario/spec.h"
#include "world/dynamics.h"
#include "world/grid_map.h"
#include "world/sensor_field.h"

namespace dde::scenario {
namespace {

/// Build one route-finding decision expression: OR over candidate routes of
/// AND(viable(segment)). Prefers route sets whose segments are all covered
/// by some sensor, per the per-segment mask `covered` (otherwise the query
/// may be inherently unresolvable for every scheme). `draw` is working
/// memory reused from query to query.
decision::DnfExpr make_route_query(const world::GridMap& map,
                                   const std::vector<char>& covered,
                                   const ScenarioConfig& cfg, Rng& rng,
                                   world::RouteQueryDraw& draw) {
  map.draw_route_query(cfg.routes_per_query, cfg.min_route_distance, rng,
                       covered, draw);
  const world::RouteKeys& routes = draw.best;
  std::vector<decision::Conjunction> disjuncts(routes.kept);
  for (std::size_t i = 0; i < routes.kept; ++i) {
    std::vector<decision::Term>& terms = disjuncts[i].terms;
    terms.reserve(routes.steps());
    map.for_each_segment(routes, i, [&](SegmentId seg) {
      terms.push_back(decision::Term{LabelId{seg.value()}, false});
    });
  }
  return decision::DnfExpr(std::move(disjuncts));
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

  void advance(SimTime until) { stack_.sim.run_until(until); }

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
  Stack stack_;
  std::vector<char> covered_;  ///< per segment: does some sensor cover it
  world::RouteQueryDraw route_draw_;  ///< make_route_query's working memory
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
  std::vector<NodeId> hosts = stack_.connect_sensors(
      field, cfg.link_radius, cfg.link_bandwidth_bps, cfg.link_latency);
  net::Network& network = stack_.open_network();
  if (cfg.packet_loss > 0.0) {
    network.set_loss_rate(cfg.packet_loss, cfg.seed * 7919 + 13);
  }
  if (cfg.trace_sink != nullptr) network.set_trace_sink(cfg.trace_sink);
  if (cfg.link_queue_max_packets > 0 || cfg.link_queue_max_bytes > 0) {
    network.set_queue_limits(net::QueueLimits{cfg.link_queue_max_packets,
                                              cfg.link_queue_max_bytes});
  }
  stack_.inject_faults(cfg.faults, cfg.chaos, cfg.seed,
                       /*owns_loss_model=*/false);

  // --- directory and nodes ---------------------------------------------------
  athena::AthenaConfig node_cfg =
      cfg.config_override.value_or(athena::config_for(cfg.scheme));
  if (!cfg.config_override) {
    node_cfg.corroboration_confidence = cfg.corroboration_confidence;
    node_cfg.crash_recovery = cfg.fault_crash_recovery;
    node_cfg.recovery_lease = cfg.recovery_lease;
  }
  stack_.add_nodes(field, std::move(hosts), truth, map.segment_count(),
                   node_cfg, cfg.trace_sink);
  for (const auto& node : stack_.nodes) {
    node->set_retire_hook(
        [this](const athena::QueryRecord& rec, const decision::DnfExpr& expr) {
          retire(rec, expr);
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
    DDE_CLAMP_OR(!stack_.nodes.empty() || !broadcast, broadcast = false,
                 "route scenario: broadcast_invalidation needs at least one "
                 "node; disruption applied without a broadcast");
    athena::AthenaNode* herald =
        stack_.nodes.empty() ? nullptr : stack_.nodes[0].get();
    world::ViabilityProcess* world_truth = &truth;
    stack_.sim.schedule_at(cfg.disruption_at, [hit, herald, world_truth,
                                               broadcast,
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
  stack_.sim.schedule_at(when, [this, i] { arrive(i); });
}

void RouteRun::arrive(std::size_t i) {
  Rng& rng = arrivals_[i].rng;
  decision::DnfExpr expr = make_route_query(*map_, covered_, cfg_, rng, route_draw_);
  const int priority =
      cfg_.critical_fraction > 0.0 && rng.chance(cfg_.critical_fraction)
          ? cfg_.critical_priority
          : 0;
  if (!expr.empty()) {
    ++(priority > 0 ? totals_.critical : totals_.normal).issued;
    stack_.nodes[i]->query_init(std::move(expr), cfg_.query_deadline, priority);
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
  result.metrics = stack_.collect_metrics();
  result.traffic = stack_.network->stats();
  result.faults = stack_.fault_stats();
  result.events = stack_.sim.executed_events();
  result.queries = totals_.normal.issued + totals_.critical.issued;
  result.totals = totals_;

  // Residual-state probes for the chaos harness's quiesce-point invariant
  // check (cheap counts; harmless to fill on every collect).
  result.probes.reserve(stack_.nodes.size());
  for (const auto& node : stack_.nodes) {
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
  bind_fault_knobs(b, cfg.faults, cfg.chaos, cfg.fault_crash_recovery,
                   cfg.recovery_lease);
  b.bind("run_to_quiescence", &cfg.run_to_quiescence);
  b.bind_enum(
      "scheme", [&cfg] { return std::string(to_string(cfg.scheme)); },
      [&cfg](const std::string& v) {
        return athena::parse_scheme(v, &cfg.scheme);
      });
  return b;
}

/// The "route" plugin (see scenario/plugin.h).
struct RoutePlugin {
  using Config = ScenarioConfig;
  using Run = RouteRun;

  static ScenarioMetadata metadata() {
    return {"route",
            "Post-disaster route assessment on a Manhattan grid (paper "
            "Sec. VII)",
            "evaluation"};
  }
  static constexpr auto binder = &route_binder;

  static ScenarioOutcome outcome(const ScenarioResult& r) {
    ScenarioOutcome out;
    out.metrics["queries"] = static_cast<double>(r.queries);
    out.metrics["queries_resolved"] =
        static_cast<double>(r.metrics.queries_resolved);
    out.metrics["queries_failed"] =
        static_cast<double>(r.metrics.queries_failed);
    out.metrics["resolution_ratio"] = r.resolution_ratio();
    out.metrics["mean_latency_s"] = r.metrics.mean_latency_s();
    out.metrics["total_megabytes"] = r.total_megabytes();
    if (const auto accuracy = r.decision_accuracy()) {
      out.metrics["decision_accuracy"] = *accuracy;
    }
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

std::unique_ptr<ScenarioRunner> make_route_scenario() {
  return std::make_unique<PluginRunner<RoutePlugin>>();
}

}  // namespace dde::scenario
