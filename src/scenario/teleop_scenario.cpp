#include "scenario/teleop_scenario.h"

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/contracts.h"
#include "common/rng.h"
#include "des/periodic.h"
#include "fault/gilbert_elliott.h"
#include "scenario/plugin.h"
#include "scenario/spec.h"
#include "world/dynamics.h"
#include "world/grid_map.h"
#include "world/mobility.h"
#include "world/sensor_field.h"

namespace dde::scenario {
namespace {

/// One in-flight teleoperation run.
///
/// Node layout: node 0 is the teleoperation center (operator); nodes
/// 1..carrier_count are carrier gateways on a lossless wired core; nodes
/// carrier_count+1.. are the vehicles, each multi-homed with a lossy
/// cellular link to every gateway. Vehicle v hosts sensor v (its camera),
/// whose evidence resolves label v (the vehicle's situation) — so every
/// operator decision about vehicle v pulls fresh evidence over the
/// cellular links, within a deadline shorter than the retry timeout:
/// single-path loss means a missed decision, which is exactly the regime
/// multipath redundancy targets.
class TeleopRun {
 public:
  explicit TeleopRun(const TeleopScenarioConfig& config);

  void advance(SimTime until) { stack_.sim.run_until(until); }

  /// Assemble the result for the run advanced so far (idempotent).
  [[nodiscard]] TeleopScenarioResult collect();

 private:
  struct CellularLink {
    std::size_t vehicle = 0;  ///< fleet index (not node id)
    std::size_t carrier = 0;
    std::size_t channel = 0;  ///< index into channels_
  };

  [[nodiscard]] NodeId vehicle_node(std::size_t v) const {
    return NodeId{1 + cfg_.carrier_count + v};
  }
  [[nodiscard]] NodeId gateway_node(std::size_t c) const {
    return NodeId{1 + c};
  }

  TeleopScenarioConfig cfg_;
  Rng rng_;
  std::optional<world::GridMap> map_;
  std::optional<world::ViabilityProcess> truth_;
  std::optional<world::SensorField> field_;
  std::optional<world::GridMobility> mobility_;
  /// carrier_covers_[c][cell.y * width + cell.x]: static coverage map.
  std::vector<std::vector<char>> carrier_covers_;
  /// Directed cellular link id → its loss-channel binding.
  std::map<std::uint64_t, CellularLink> cellular_;
  std::vector<fault::GilbertElliott> channels_;
  Rng loss_rng_;
  Stack stack_;
  std::uint64_t issued_ = 0;
  std::optional<des::PeriodicTask> ticker_;
};

TeleopRun::TeleopRun(const TeleopScenarioConfig& config)
    : cfg_(config), rng_(cfg_.seed), loss_rng_(cfg_.seed * 104729 + 11) {
  const TeleopScenarioConfig& cfg = cfg_;
  Rng& rng = rng_;

  DDE_CHECK(cfg.vehicle_count > 0, "teleop scenario: vehicle_count == 0");
  DDE_CHECK(cfg.carrier_count > 0, "teleop scenario: carrier_count == 0");
  DDE_CHECK(cfg.decision_period > SimTime::zero(),
            "teleop scenario: decision_period must be > 0");
  DDE_CHECK(cfg.query_deadline > SimTime::zero(),
            "teleop scenario: query_deadline must be > 0");
  std::size_t redundancy = cfg.multipath_redundancy;
  DDE_CLAMP_OR(redundancy >= 1, redundancy = 1,
               "teleop scenario: multipath_redundancy must be >= 1; "
               "clamped to 1 (single path)");

  // --- world: city grid, ground truth, vehicle cameras, trajectories ------
  map_.emplace(cfg.grid_width, cfg.grid_height);
  world::GridMap& map = *map_;
  DDE_CHECK(cfg.vehicle_count <= map.segment_count(),
            "teleop scenario: more vehicles than situation segments");
  std::vector<world::SegmentDynamics> dyn(
      map.segment_count(),
      world::SegmentDynamics{0.5, SimTime::seconds(120)});
  truth_.emplace(std::move(dyn), rng.fork());
  world::ViabilityProcess& truth = *truth_;

  // Vehicle v's camera is sensor v: it evidences label v (the vehicle's
  // situation, modeled on grid segment v). Validity is shorter than the
  // decision period, so every assessment needs a fresh capture.
  std::vector<world::SensorInfo> sensors;
  sensors.reserve(cfg.vehicle_count);
  for (std::size_t v = 0; v < cfg.vehicle_count; ++v) {
    world::SensorInfo s;
    s.id = SourceId{v};
    s.covers = {SegmentId{v}};
    s.object_bytes = static_cast<std::uint64_t>(
        rng.between(static_cast<std::int64_t>(cfg.min_object_bytes),
                    static_cast<std::int64_t>(cfg.max_object_bytes)));
    s.validity = cfg.object_validity;
    s.rate = world::ChangeRate::kFast;
    sensors.push_back(std::move(s));
  }
  field_.emplace(map, truth, std::move(sensors));
  world::SensorField& field = *field_;

  mobility_.emplace(map, cfg.vehicle_count, cfg.vehicle_speed / 60.0, rng);

  // Static per-carrier cell coverage (who has signal where).
  carrier_covers_.resize(cfg.carrier_count);
  const std::size_t cell_count =
      static_cast<std::size_t>(map.width()) *
      static_cast<std::size_t>(map.height());
  for (std::size_t c = 0; c < cfg.carrier_count; ++c) {
    carrier_covers_[c].resize(cell_count);
    for (std::size_t i = 0; i < cell_count; ++i) {
      carrier_covers_[c][i] = rng.chance(cfg.coverage) ? 1 : 0;
    }
  }

  // --- network: wired core + multi-homed cellular links -------------------
  net::Topology& topo = stack_.topo;
  const NodeId op = topo.add_node();  // node 0: the teleoperation center
  DDE_CHECK(op.value() == 0, "teleop scenario: operator must be node 0");
  for (std::size_t c = 0; c < cfg.carrier_count; ++c) {
    const NodeId gw = topo.add_node();
    topo.add_link(op, gw, cfg.core_bandwidth_bps, cfg.core_latency);
  }
  const auto ge =
      fault::GilbertElliottParams::for_average_loss(cfg.cell_loss,
                                                    cfg.mean_burst_len);
  for (std::size_t v = 0; v < cfg.vehicle_count; ++v) {
    const NodeId vn = topo.add_node();
    DDE_CHECK(vn == vehicle_node(v), "teleop scenario: node layout broken");
    for (std::size_t c = 0; c < cfg.carrier_count; ++c) {
      const auto [up, down] = topo.add_link(vn, gateway_node(c),
                                            cfg.cell_bandwidth_bps,
                                            cfg.cell_latency);
      // Each direction is its own independently-evolving channel.
      cellular_[up.value()] = CellularLink{v, c, channels_.size()};
      channels_.emplace_back(ge);
      cellular_[down.value()] = CellularLink{v, c, channels_.size()};
      channels_.emplace_back(ge);
    }
  }
  topo.compute_routes();

  stack_.open_network().set_loss_model([this](LinkId link) {
    const auto it = cellular_.find(link.value());
    if (it == cellular_.end()) return false;  // wired core: lossless
    const CellularLink& cl = it->second;
    const world::GridCell cell =
        mobility_->cell_at(cl.vehicle, stack_.sim.now());
    const std::size_t idx =
        static_cast<std::size_t>(cell.y) *
            static_cast<std::size_t>(map_->width()) +
        static_cast<std::size_t>(cell.x);
    if (carrier_covers_[cl.carrier][idx] == 0) {
      // Out of this carrier's coverage: the link is as good as dead.
      return loss_rng_.chance(cfg_.gap_loss);
    }
    return channels_[cl.channel].step(loss_rng_);
  });

  // --- structured fault injection ------------------------------------------
  // Gateway/vehicle crashes and link outages compose with mobility and
  // multipath redundancy. This scenario owns the network's loss model (the
  // cellular chains above), so a configured burst channel is clamped off.
  stack_.inject_faults(cfg.faults, cfg.chaos, cfg.seed,
                       /*owns_loss_model=*/true);

  // --- directory / nodes ---------------------------------------------------
  std::vector<NodeId> host_of_sensor;
  for (std::size_t v = 0; v < cfg.vehicle_count; ++v) {
    host_of_sensor.push_back(vehicle_node(v));
  }
  athena::AthenaConfig node_cfg = athena::config_for(cfg.scheme);
  node_cfg.multipath_redundancy = redundancy;
  node_cfg.crash_recovery = cfg.fault_crash_recovery;
  node_cfg.recovery_lease = cfg.recovery_lease;
  // Only the vehicles' labels are queried, so only they need priors.
  stack_.add_nodes(field, std::move(host_of_sensor), truth, cfg.vehicle_count,
                   node_cfg, /*trace_sink=*/nullptr);

  // --- workload: the operator assesses every vehicle each period ----------
  ticker_.emplace(stack_.sim, cfg.decision_period, [this](std::uint64_t) {
    for (std::size_t v = 0; v < cfg_.vehicle_count; ++v) {
      decision::DnfExpr expr;
      decision::Conjunction c;
      c.terms.push_back(decision::Term{LabelId{v}, false});
      expr.add_disjunct(std::move(c));
      stack_.nodes[0]->query_init(std::move(expr), cfg_.query_deadline,
                                  cfg_.critical_priority);
      ++issued_;
    }
  });
  ticker_->start();
}

TeleopScenarioResult TeleopRun::collect() {
  ticker_->stop();

  TeleopScenarioResult result;
  result.metrics = stack_.collect_metrics();
  result.faults = stack_.fault_stats();
  result.queries_issued = issued_;
  result.deadline_hits = result.metrics.queries_resolved;
  result.events = stack_.sim.executed_events();
  result.bytes_sent = stack_.network->stats().bytes;
  result.replica_copies = result.metrics.replica_copies;
  result.replica_duplicates = result.metrics.replica_duplicates;
  return result;
}

// --- the "teleop" plugin ---------------------------------------------------

/// The "teleop" plugin's spec schema over a config instance. The binder
/// holds pointers into `cfg`: it must not outlive it.
SpecBinder teleop_binder(TeleopScenarioConfig& cfg) {
  SpecBinder b;
  b.bind("grid_width", &cfg.grid_width);
  b.bind("grid_height", &cfg.grid_height);
  b.bind("vehicle_count", &cfg.vehicle_count);
  b.bind("carrier_count", &cfg.carrier_count);
  b.bind("vehicle_speed", &cfg.vehicle_speed);
  b.bind("cell_bandwidth_bps", &cfg.cell_bandwidth_bps);
  b.bind_seconds("cell_latency_s", &cfg.cell_latency);
  b.bind("core_bandwidth_bps", &cfg.core_bandwidth_bps);
  b.bind_seconds("core_latency_s", &cfg.core_latency);
  b.bind("cell_loss", &cfg.cell_loss);
  b.bind("mean_burst_len", &cfg.mean_burst_len);
  b.bind("coverage", &cfg.coverage);
  b.bind("gap_loss", &cfg.gap_loss);
  b.bind_seconds("decision_period_s", &cfg.decision_period);
  b.bind_seconds("query_deadline_s", &cfg.query_deadline);
  b.bind_seconds("object_validity_s", &cfg.object_validity);
  b.bind("min_object_bytes", &cfg.min_object_bytes);
  b.bind("max_object_bytes", &cfg.max_object_bytes);
  b.bind("critical_priority", &cfg.critical_priority);
  b.bind("multipath_redundancy", &cfg.multipath_redundancy);
  // The burst channel is not honored here; see TeleopScenarioConfig::faults.
  bind_fault_knobs(b, cfg.faults, cfg.chaos, cfg.fault_crash_recovery,
                   cfg.recovery_lease);
  b.bind_seconds("horizon_s", &cfg.horizon);
  b.bind_enum(
      "scheme", [&cfg] { return std::string(to_string(cfg.scheme)); },
      [&cfg](const std::string& v) {
        return athena::parse_scheme(v, &cfg.scheme);
      });
  return b;
}

/// The "teleop" plugin (see scenario/plugin.h).
struct TeleopPlugin {
  using Config = TeleopScenarioConfig;
  using Run = TeleopRun;

  static ScenarioMetadata metadata() {
    return {"teleop",
            "Vehicular teleoperation over lossy multi-homed cellular links "
            "(paper Sec. IV-A)",
            "evaluation"};
  }
  static constexpr auto binder = &teleop_binder;

  static ScenarioOutcome outcome(const TeleopScenarioResult& r) {
    ScenarioOutcome out;
    out.metrics["queries"] = static_cast<double>(r.queries_issued);
    out.metrics["deadline_hits"] = static_cast<double>(r.deadline_hits);
    out.metrics["deadline_hit_rate"] = r.deadline_hit_rate();
    // Only node 0 issues queries, so the run-wide mean is the operator's.
    out.metrics["mean_latency_s"] = r.metrics.mean_latency_s();
    out.metrics["total_megabytes"] =
        static_cast<double>(r.bytes_sent) / 1e6;
    out.metrics["replica_copies"] = static_cast<double>(r.replica_copies);
    out.metrics["replica_duplicates"] =
        static_cast<double>(r.replica_duplicates);
    out.metrics["events"] = static_cast<double>(r.events);
    out.metrics["crashed_queries"] =
        static_cast<double>(r.metrics.queries_failed_crash);
    out.metrics["node_restarts"] =
        static_cast<double>(r.metrics.node_restarts);
    out.metrics["recovery_time_s"] = r.metrics.mean_recovery_time_s();
    return out;
  }
};

}  // namespace

TeleopScenarioResult run_teleop_scenario(const TeleopScenarioConfig& cfg) {
  TeleopRun run(cfg);
  run.advance(cfg.horizon);
  return run.collect();
}

std::unique_ptr<ScenarioRunner> make_teleop_scenario() {
  return std::make_unique<PluginRunner<TeleopPlugin>>();
}

}  // namespace dde::scenario
