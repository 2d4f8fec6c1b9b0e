#include "scenario/trigger_scenario.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <optional>

#include "athena/directory.h"
#include "athena/node.h"
#include "common/contracts.h"
#include "common/rng.h"
#include "des/periodic.h"
#include "des/simulator.h"
#include "net/network.h"
#include "net/topology.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "world/dynamics.h"
#include "world/grid_map.h"
#include "world/sensor_field.h"

namespace dde::scenario {
namespace {

/// Geometric links + connectivity repair (same policy as the route
/// scenario, duplicated to keep the scenarios independently readable).
void build_links(net::Topology& topo, const world::SensorField& field,
                 double radius, double bandwidth) {
  const auto& sensors = field.sensors();
  const std::size_t n = sensors.size();
  auto dist = [&](std::size_t a, std::size_t b) {
    const double dx = sensors[a].x - sensors[b].x;
    const double dy = sensors[a].y - sensors[b].y;
    return std::sqrt(dx * dx + dy * dy);
  };
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
      if (dist(i, j) <= radius) {
        topo.add_link(NodeId{i}, NodeId{j}, bandwidth);
        parent[find(i)] = find(j);
      }
    }
  }
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
    if (bi == n) break;
    topo.add_link(NodeId{bi}, NodeId{bj}, bandwidth);
    parent[find(bi)] = find(bj);
  }
}

/// One in-flight warehouse-watch run: the constructor builds the world,
/// network and nodes and starts the watch; advance()/collect() run and read
/// it. Members are declared in dependency order, so destruction tears down
/// the watch and nodes before the network and simulator they use. The order
/// of the RNG draws in the constructor is the trajectory: tests/golden/ pins
/// it, so moving a draw shows up as a golden diff.
class TriggerRun {
 public:
  explicit TriggerRun(const TriggerScenarioConfig& config);
  TriggerRun(const TriggerRun&) = delete;
  TriggerRun& operator=(const TriggerRun&) = delete;

  void advance(SimTime until) { sim_.run_until(until); }

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
  net::Topology topo_;
  std::vector<NodeId> hosts_;
  des::Simulator sim_;
  std::optional<net::Network> network_;
  std::optional<athena::Directory> directory_;
  athena::AthenaMetrics metrics_;
  std::vector<std::unique_ptr<athena::AthenaNode>> nodes_;
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
  // A non-positive sampling period would make the PeriodicTask respawn
  // forever at a single simulation instant (the run never advances). Clamp
  // to the documented default.
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

  // --- network / directory -------------------------------------------------
  for (std::size_t i = 0; i < cfg.node_count; ++i) {
    hosts_.push_back(topo_.add_node());
  }
  build_links(topo_, field, cfg.link_radius, cfg.link_bandwidth_bps);
  topo_.compute_routes();

  network_.emplace(sim_, topo_);
  net::Network& network = *network_;

  std::unordered_map<LabelId, double> p_true;
  for (const auto& seg : map.segments()) {
    p_true[LabelId{seg.id.value()}] = truth.params(seg.id).p_viable;
  }
  directory_.emplace(topo_, field, hosts_, std::move(p_true));

  const auto node_cfg = athena::config_for(cfg.scheme);
  nodes_.reserve(cfg.node_count);
  for (std::size_t i = 0; i < cfg.node_count; ++i) {
    nodes_.push_back(std::make_unique<athena::AthenaNode>(
        NodeId{i}, network, *directory_, field, node_cfg, metrics_));
  }
  // Reaction time: physical event to decision, per resolved query.
  nodes_[watch_node_.value()]->set_retire_hook(
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
  prev_state_ = truth.viable_at(watched, SimTime::zero());
  if (prev_state_) {
    // Already in the "motion" state at start: treat its onset as t=0.
  }
  watch_.emplace(sim_, watch_period_, [this](std::uint64_t) {
    const SimTime now = sim_.now();
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
      nodes_[watch_node_.value()]->query_init(std::move(expr),
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
  result.metrics = metrics_;
  return result;
}

// --- the "trigger" plugin --------------------------------------------------

bool parse_scheme(const std::string& v, athena::Scheme* out) {
  if (v == "cmp") *out = athena::Scheme::kCmp;
  else if (v == "slt") *out = athena::Scheme::kSlt;
  else if (v == "lcf") *out = athena::Scheme::kLcf;
  else if (v == "lvf") *out = athena::Scheme::kLvf;
  else if (v == "lvfl") *out = athena::Scheme::kLvfl;
  else return false;
  return true;
}

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
      [&cfg](const std::string& v) { return parse_scheme(v, &cfg.scheme); });
  return b;
}

class TriggerScenarioRunner final : public ScenarioRunner {
 public:
  [[nodiscard]] const ScenarioMetadata& metadata() const override {
    static const ScenarioMetadata meta{
        "trigger",
        "Event-triggered intruder identification in a warehouse "
        "(paper Sec. IV-B)",
        "evaluation"};
    return meta;
  }

  [[nodiscard]] ScenarioSpec spec() const override {
    TriggerScenarioConfig copy = cfg_;
    return trigger_binder(copy).to_spec();
  }

  void configure(const ScenarioSpec& spec) override {
    DDE_CHECK(run_ == nullptr,
              "trigger scenario: configure() between setup() and reset()");
    trigger_binder(cfg_).apply(spec);
  }

  void setup(std::uint64_t seed) override {
    cfg_.seed = seed;
    run_ = std::make_unique<TriggerRun>(cfg_);
  }

  void tick(SimTime until) override {
    DDE_CHECK(run_ != nullptr, "trigger scenario: tick() before setup()");
    run_->advance(until);
  }

  [[nodiscard]] SimTime horizon() const override { return cfg_.horizon; }

  [[nodiscard]] ScenarioOutcome outcome() override {
    DDE_CHECK(run_ != nullptr, "trigger scenario: outcome() before setup()");
    const TriggerScenarioResult r = run_->collect();
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

  void reset() override { run_.reset(); }

 private:
  TriggerScenarioConfig cfg_;
  std::unique_ptr<TriggerRun> run_;
};

}  // namespace

TriggerScenarioResult run_trigger_scenario(const TriggerScenarioConfig& cfg) {
  TriggerRun run(cfg);
  run.advance(cfg.horizon);
  return run.collect();
}

void register_trigger_scenario() {
  static const bool once = [] {
    register_scenario("trigger", +[]() -> std::unique_ptr<ScenarioRunner> {
      return std::make_unique<TriggerScenarioRunner>();
    });
    return true;
  }();
  (void)once;
}

}  // namespace dde::scenario
