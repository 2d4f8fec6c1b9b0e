#include "scenario/trigger_scenario.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>

#include "common/contracts.h"
#include "common/rng.h"
#include "des/periodic.h"
#include "scenario/plugin.h"
#include "scenario/spec.h"
#include "world/dynamics.h"
#include "world/grid_map.h"
#include "world/sensor_field.h"

namespace dde::scenario {
namespace {

/// One in-flight warehouse-watch run: the constructor builds the world,
/// network and nodes and starts the watch; advance()/collect() run and read
/// it. Members are declared in dependency order, so destruction tears down
/// the watch and nodes before the network and simulator they use. The order
/// of the RNG draws in the constructor is the trajectory: tests/golden/ pins
/// it, so moving a draw shows up as a golden diff.
class TriggerRun {
 public:
  explicit TriggerRun(const TriggerScenarioConfig& config);

  void advance(SimTime until) { stack_.sim.run_until(until); }

  /// Assemble the result for the run advanced so far (idempotent).
  [[nodiscard]] TriggerScenarioResult collect();

 private:
  TriggerScenarioConfig cfg_;
  /// Validated sampling period (cfg_.watch_period with contract clamping).
  SimTime watch_period_ = SimTime::zero();
  Rng rng_;
  std::optional<world::GridMap> map_;
  SegmentId watched_{0};
  std::optional<world::ViabilityProcess> truth_;
  std::optional<world::SensorField> field_;
  NodeId watch_node_{0};
  SourceId watch_sensor_{0};
  Stack stack_;
  std::vector<LabelId> id_labels_;
  TriggerScenarioResult result_;
  /// Event onset per watch-node query counter, held until the query
  /// retires. The watch loop is the only issuer at that node, so a query's
  /// counter is the number of queries issued before it.
  std::map<std::uint64_t, SimTime> onsets_;
  bool prev_state_ = false;
  std::optional<des::PeriodicTask> watch_;
};

TriggerRun::TriggerRun(const TriggerScenarioConfig& config)
    : cfg_(config), rng_(cfg_.seed) {
  const TriggerScenarioConfig& cfg = cfg_;
  Rng& rng = rng_;

  // A non-positive event rate would put a zero (or negative) cycle length
  // into the dynamics below — division by zero, then a DDE_CHECK deep in
  // ViabilityProcess. Clamp to the documented default instead.
  double event_rate_per_hour = cfg.event_rate_per_hour;
  DDE_CLAMP_OR(event_rate_per_hour > 0.0, event_rate_per_hour = 12.0,
               "trigger scenario: event_rate_per_hour must be > 0; "
               "clamped to 12");
  // PeriodicTask aborts on a non-positive sampling period (it would respawn
  // forever at one simulation instant). Clamp to the documented default.
  watch_period_ = cfg.watch_period;
  DDE_CLAMP_OR(watch_period_ > SimTime::zero(),
               watch_period_ = SimTime::seconds(5),
               "trigger scenario: watch_period must be > 0; clamped to 5s");

  // --- world: one fast "motion" segment, calm everything else -------------
  map_.emplace(cfg.grid_width, cfg.grid_height);
  world::GridMap& map = *map_;
  watched_ = SegmentId{rng.below(map.segment_count())};
  const SegmentId watched = watched_;
  std::vector<world::SegmentDynamics> dyn(
      map.segment_count(),
      world::SegmentDynamics{0.8, SimTime::seconds(36000)});
  // Motion is on ~20% of the time; the on→off cycle length sets the event
  // rate: events/hour ≈ 3600 / (2 × mean_holding).
  dyn[watched.value()] = world::SegmentDynamics{
      0.2, SimTime::seconds(1800.0 / event_rate_per_hour)};
  truth_.emplace(std::move(dyn), rng.fork());
  world::ViabilityProcess& truth = *truth_;

  world::SensorFieldConfig field_cfg;
  field_cfg.sensor_count = cfg.node_count;
  field_cfg.coverage_radius = cfg.coverage_radius;
  field_cfg.fast_ratio = 0.0;
  field_cfg.slow_validity = SimTime::seconds(45);  // camera footage ages fast
  field_.emplace(map, truth, field_cfg, rng);
  world::SensorField& field = *field_;

  // The watch node hosts a sensor that covers the monitored segment; if
  // none does, fall back to node 0 (it can still query remote cameras).
  for (const auto& s : field.sensors()) {
    if (std::find(s.covers.begin(), s.covers.end(), watched) !=
        s.covers.end()) {
      watch_node_ = NodeId{s.id.value()};
      watch_sensor_ = s.id;
      break;
    }
  }

  // --- network / directory / nodes -----------------------------------------
  std::vector<NodeId> hosts =
      stack_.connect_sensors(field, cfg.link_radius, cfg.link_bandwidth_bps,
                             SimTime::millis(1));
  stack_.open_network();
  stack_.add_nodes(field, std::move(hosts), truth, map.segment_count(),
                   athena::config_for(cfg.scheme), /*trace_sink=*/nullptr);
  // Reaction time: physical event to decision, per resolved query.
  stack_.nodes[watch_node_.value()]->set_retire_hook(
      [this](const athena::QueryRecord& rec, const decision::DnfExpr&) {
        const auto onset = onsets_.find(rec.id.value() & 0xFFFF'FFFFULL);
        DDE_CHECK(onset != onsets_.end(),
                  "trigger scenario: retired query has no event onset");
        if (rec.success()) {
          result_.reaction_s.push_back(
              (rec.finished_at - onset->second).to_seconds());
        }
        onsets_.erase(onset);
      });

  // Identification query: evidence from cameras covering segments around
  // the watched one (excluding the watch sensor's own footprint, which the
  // watch node can already see locally).
  const auto& watched_seg = map.segment(watched);
  {
    auto nearby = map.segments_near(watched_seg.mid_x(), watched_seg.mid_y(),
                                    2.0);
    const auto& own = field.sensor(watch_sensor_).covers;
    for (SegmentId s : nearby) {
      if (id_labels_.size() >= cfg.cameras_per_query) break;
      if (std::find(own.begin(), own.end(), s) != own.end()) continue;
      if (field.sensors_covering(s).empty()) continue;
      id_labels_.push_back(LabelId{s.value()});
    }
    // Fall back to any covered labels if the neighbourhood was too bare.
    for (SegmentId s : field.covered_segments()) {
      if (id_labels_.size() >= cfg.cameras_per_query) break;
      const LabelId l{s.value()};
      if (std::find(id_labels_.begin(), id_labels_.end(), l) ==
          id_labels_.end()) {
        id_labels_.push_back(l);
      }
    }
  }

  // --- the watch loop -------------------------------------------------------
  // Only a false→true edge is an event: motion on at t=0 counts as none.
  prev_state_ = truth.viable_at(watched, SimTime::zero());
  watch_.emplace(stack_.sim, watch_period_, [this](std::uint64_t) {
    const SimTime now = stack_.sim.now();
    const bool state = truth_->viable_at(watched_, now);
    if (state && !prev_state_) {
      // Event! Find the exact onset (the last flip at or before now).
      SimTime onset = now;
      SimTime probe = now - watch_period_;
      if (probe < SimTime::zero()) probe = SimTime::zero();
      onset = truth_->next_change_after(watched_, probe);
      if (onset > now) onset = probe;  // flipped exactly at the probe point
      ++result_.events;
      onsets_.emplace(result_.queries_issued, onset);
      result_.detection_s.push_back((now - onset).to_seconds());
      decision::DnfExpr expr;
      decision::Conjunction c;
      for (LabelId l : id_labels_) {
        c.terms.push_back(decision::Term{l, false});
      }
      expr.add_disjunct(std::move(c));
      stack_.nodes[watch_node_.value()]->query_init(std::move(expr),
                                                    cfg_.query_deadline);
      ++result_.queries_issued;
    }
    prev_state_ = state;
  });
  watch_->start();
}

TriggerScenarioResult TriggerRun::collect() {
  watch_->stop();

  TriggerScenarioResult result = result_;
  result.metrics = stack_.collect_metrics();
  return result;
}

// --- the "trigger" plugin --------------------------------------------------

/// The "trigger" plugin's spec schema over a config instance. The binder
/// holds pointers into `cfg`: it must not outlive it.
SpecBinder trigger_binder(TriggerScenarioConfig& cfg) {
  SpecBinder b;
  b.bind("grid_width", &cfg.grid_width);
  b.bind("grid_height", &cfg.grid_height);
  b.bind("node_count", &cfg.node_count);
  b.bind("coverage_radius", &cfg.coverage_radius);
  b.bind("link_radius", &cfg.link_radius);
  b.bind("link_bandwidth_bps", &cfg.link_bandwidth_bps);
  b.bind("event_rate_per_hour", &cfg.event_rate_per_hour);
  b.bind_seconds("watch_period_s", &cfg.watch_period);
  b.bind_seconds("query_deadline_s", &cfg.query_deadline);
  b.bind("cameras_per_query", &cfg.cameras_per_query);
  b.bind_seconds("horizon_s", &cfg.horizon);
  b.bind_enum(
      "scheme", [&cfg] { return std::string(to_string(cfg.scheme)); },
      [&cfg](const std::string& v) {
        return athena::parse_scheme(v, &cfg.scheme);
      });
  return b;
}

/// The "trigger" plugin (see scenario/plugin.h).
struct TriggerPlugin {
  using Config = TriggerScenarioConfig;
  using Run = TriggerRun;

  static ScenarioMetadata metadata() {
    return {"trigger",
            "Event-triggered intruder identification in a warehouse "
            "(paper Sec. IV-B)",
            "evaluation"};
  }
  static constexpr auto binder = &trigger_binder;

  static ScenarioOutcome outcome(const TriggerScenarioResult& r) {
    ScenarioOutcome out;
    out.metrics["events"] = static_cast<double>(r.events);
    out.metrics["queries_issued"] = static_cast<double>(r.queries_issued);
    out.metrics["queries_resolved"] =
        static_cast<double>(r.metrics.queries_resolved);
    out.metrics["resolution_ratio"] = r.resolution_ratio();
    double detection = 0.0;
    for (double d : r.detection_s) detection += d;
    out.metrics["mean_detection_s"] =
        r.detection_s.empty()
            ? 0.0
            : detection / static_cast<double>(r.detection_s.size());
    double reaction = 0.0;
    for (double d : r.reaction_s) reaction += d;
    out.metrics["mean_reaction_s"] =
        r.reaction_s.empty()
            ? 0.0
            : reaction / static_cast<double>(r.reaction_s.size());
    out.metrics["reactions"] = static_cast<double>(r.reaction_s.size());
    return out;
  }
};

}  // namespace

TriggerScenarioResult run_trigger_scenario(const TriggerScenarioConfig& cfg) {
  TriggerRun run(cfg);
  run.advance(cfg.horizon);
  return run.collect();
}

std::unique_ptr<ScenarioRunner> make_trigger_scenario() {
  return std::make_unique<PluginRunner<TriggerPlugin>>();
}

}  // namespace dde::scenario
