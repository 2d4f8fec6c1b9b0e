#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "athena/obs_adapters.h"
#include "obs/bench_report.h"
#include "obs/histogram.h"
#include "obs/json.h"
#include "obs/metric_registry.h"
#include "obs/trace.h"
#include "scenario/route_scenario.h"

namespace dde::obs {
namespace {

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

TEST(Json, RoundTripsDocument) {
  const std::string text =
      R"({"a":[1,2.5,true,null,"x\"y"],"b":{"nested":-3},"c":""})";
  std::string error;
  const json::Value v = json::Value::parse(text, &error);
  EXPECT_TRUE(error.empty()) << error;
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("a")->as_array().size(), 5u);
  EXPECT_EQ(v.find("a")->as_array()[4].as_string(), "x\"y");
  EXPECT_EQ(v.find("b")->find("nested")->as_number(), -3.0);
  // dump → parse → dump is a fixed point (keys are map-sorted).
  const std::string once = v.dump();
  const json::Value again = json::Value::parse(once, &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_EQ(again.dump(), once);
}

TEST(Json, DeterministicKeyOrder) {
  json::Object o;
  o["zebra"] = json::Value(1);
  o["alpha"] = json::Value(2);
  EXPECT_EQ(json::Value(o).dump(), R"({"alpha":2,"zebra":1})");
}

TEST(Json, IntegersPrintWithoutDecimalPoint) {
  EXPECT_EQ(json::number_to_string(42.0), "42");
  EXPECT_EQ(json::number_to_string(-7.0), "-7");
  EXPECT_EQ(json::Value(1.5).dump(), "1.5");
}

TEST(Json, MalformedInputsFailWithDiagnostic) {
  for (const char* bad :
       {"{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "01", "{}x",
        "{\"a\" 1}", "[1 2]"}) {
    std::string error;
    const json::Value v = json::Value::parse(bad, &error);
    EXPECT_FALSE(error.empty()) << "accepted: " << bad;
    EXPECT_TRUE(v.is_null());
  }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(Histogram, BucketAssignmentIsDeterministic) {
  Histogram h({1.0, 10.0, 100.0});
  // Boundary samples land in the bucket whose bound equals them
  // (bounds[i-1] < x <= bounds[i]), overflow catches the rest.
  for (double x : {0.5, 1.0, 1.5, 10.0, 99.0, 100.0, 101.0}) h.add(x);
  EXPECT_EQ(h.counts(), (std::vector<std::uint64_t>{2, 2, 2, 1}));
  EXPECT_EQ(h.count(), 7u);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 101.0);

  // Same samples, any order → identical counts.
  Histogram g({1.0, 10.0, 100.0});
  for (double x : {101.0, 100.0, 99.0, 10.0, 1.5, 1.0, 0.5}) g.add(x);
  EXPECT_EQ(g.counts(), h.counts());
}

TEST(Histogram, MergeAddsCountsAndAdoptsBounds) {
  Histogram a({1.0, 2.0});
  a.add(0.5);
  Histogram b({1.0, 2.0});
  b.add(1.5);
  b.add(5.0);
  a.merge(b);
  EXPECT_EQ(a.counts(), (std::vector<std::uint64_t>{1, 1, 1}));
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.max(), 5.0);

  Histogram empty;
  empty.merge(a);  // adopts a's bounds and counts
  EXPECT_EQ(empty.bounds(), a.bounds());
  EXPECT_EQ(empty.counts(), a.counts());
}

// ---------------------------------------------------------------------------
// MetricRegistry + adapters
// ---------------------------------------------------------------------------

TEST(MetricRegistry, SerializationIsNameSorted) {
  MetricRegistry reg;
  reg.counter("z.last") = 3;
  reg.counter("a.first") = 1;
  reg.gauge("m.middle") = 0.5;
  const std::string dumped = reg.to_json().dump();
  EXPECT_LT(dumped.find("a.first"), dumped.find("z.last"));
  EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricRegistry, InternedHandlesShareCellsWithNamedAccessors) {
  MetricRegistry reg;
  CounterHandle packets = reg.intern_counter("net.packets");
  GaugeHandle load = reg.intern_gauge("sched.load");
  HistogramHandle lat = reg.intern_histogram("net.latency_s", {1.0, 10.0});

  packets.inc();
  packets.inc(4);
  load.set(0.25);
  load.add(0.5);
  lat.observe(0.5);
  lat.observe(5.0);

  // Handle writes are visible through the string-keyed accessors...
  EXPECT_EQ(reg.counter("net.packets"), 5u);
  EXPECT_DOUBLE_EQ(reg.gauge("sched.load"), 0.75);
  EXPECT_EQ(reg.histogram("net.latency_s").count(), 2u);
  EXPECT_EQ(reg.histogram("net.latency_s").counts(),
            (std::vector<std::uint64_t>{1, 1, 0}));
  // ...and accessor writes are visible through the handles.
  reg.counter("net.packets") += 10;
  EXPECT_EQ(packets.value(), 15u);
  reg.gauge("sched.load") = 2.0;
  EXPECT_DOUBLE_EQ(load.value(), 2.0);
  EXPECT_EQ(lat.histogram().count(), 2u);
}

TEST(MetricRegistry, InternedHandlesSurviveLaterRegistrations) {
  // std::map nodes are pointer-stable: handles interned at wiring time must
  // stay valid as other metrics register around them.
  MetricRegistry reg;
  CounterHandle first = reg.intern_counter("m.first");
  first.inc();
  for (int i = 0; i < 200; ++i) {
    reg.counter("extra.counter." + std::to_string(i)) = 1;
    reg.gauge("extra.gauge." + std::to_string(i)) = 1.0;
  }
  first.inc();
  EXPECT_EQ(first.value(), 2u);
  EXPECT_EQ(reg.counter("m.first"), 2u);
  // Interning the same name twice yields the same cell.
  CounterHandle again = reg.intern_counter("m.first");
  again.inc();
  EXPECT_EQ(first.value(), 3u);
}

TEST(MetricRegistry, InternedMetricsSerializeLikeNamedOnes) {
  MetricRegistry reg;
  reg.intern_counter("z.interned").inc(3);
  reg.counter("a.named") = 1;
  const std::string dumped = reg.to_json().dump();
  EXPECT_NE(dumped.find("\"z.interned\":3"), std::string::npos);
  EXPECT_LT(dumped.find("a.named"), dumped.find("z.interned"));
  EXPECT_EQ(reg.size(), 2u);
}

/// Sets every field of a Stats struct to a distinct value, publishes it
/// under `prefix`, and expects each field back under prefix + its name:
/// integer fields as counters, double fields as gauges.
template <typename Stats>
void expect_every_field_published(const std::string& prefix) {
  Stats s;
  std::uint64_t next = 1;
  for_each_field(s, [&](const char*, auto& v) {
    v = static_cast<std::remove_reference_t<decltype(v)>>(next++);
  });
  MetricRegistry reg;
  publish(reg, s, prefix);
  for_each_field(s, [&](const char* name, const auto& v) {
    const std::string key = prefix + name;
    if constexpr (std::is_floating_point_v<std::decay_t<decltype(v)>>) {
      EXPECT_EQ(reg.gauges().count(key), 1u) << key;
      EXPECT_EQ(reg.gauge(key), v) << key;
    } else {
      EXPECT_EQ(reg.counters().count(key), 1u) << key;
      EXPECT_EQ(reg.counter(key), v) << key;
    }
  });
}

TEST(MetricRegistry, AdaptersPublishEveryField) {
  expect_every_field_published<athena::AthenaMetrics>("athena.");
  expect_every_field_published<net::TrafficStats>("net.");
  expect_every_field_published<cache::CacheStats>("cache.object.");

  // The derived gauges, and the names a hand-written field list once left
  // out, by name.
  athena::AthenaMetrics m;
  m.queries_issued = 10;
  m.queries_resolved = 9;
  MetricRegistry reg;
  publish(reg, m);
  EXPECT_DOUBLE_EQ(reg.gauge("athena.resolution_ratio"), 0.9);
  for (const char* name :
       {"replica_copies", "replica_duplicates", "queries_failed_crash",
        "node_restarts", "recovery_hellos", "recovery_marker_purges",
        "recovery_reissues", "control_bytes"}) {
    EXPECT_EQ(reg.counters().count(std::string("athena.") + name), 1u)
        << name;
  }
  EXPECT_EQ(reg.gauges().count("athena.mean_recovery_time_s"), 1u);
}

TEST(MetricRegistry, EveryPublishedNameIsDocumented) {
  MetricRegistry reg;
  publish(reg, athena::AthenaMetrics{});
  publish(reg, net::TrafficStats{});
  publish(reg, cache::CacheStats{}, "cache.<name>.");
  std::ifstream in(std::string(DDE_SOURCE_DIR) + "/docs/OBSERVABILITY.md");
  ASSERT_TRUE(in.good());
  std::stringstream doc;
  doc << in.rdbuf();
  std::vector<std::string> names;
  for (const auto& [name, v] : reg.counters()) names.push_back(name);
  for (const auto& [name, v] : reg.gauges()) names.push_back(name);
  for (const std::string& name : names) {
    EXPECT_NE(doc.str().find("| `" + name + "` |"), std::string::npos)
        << name << " is published but has no row in docs/OBSERVABILITY.md";
  }
}

// ---------------------------------------------------------------------------
// TraceSink
// ---------------------------------------------------------------------------

TEST(TraceSink, JsonlSchemaIsStable) {
  // Golden lines: this IS the wire schema. A change here is a breaking
  // change for every trace consumer and must be deliberate.
  Event ev;
  ev.kind = EventKind::kDecide;
  ev.at = SimTime::seconds(1.5);
  ev.node = 3;
  ev.query = (3ULL << 32) | 1;  // node 3's query #1 (pack_node_counter)
  ev.subject = 2;
  ev.bytes = 0;
  ev.value = 0.75;
  EXPECT_EQ(TraceSink::to_jsonl(ev),
            R"({"t":1.500000,"kind":"decide","node":3,"query":12884901889,)"
            R"("subject":2,"bytes":0,"value":0.75})");

  Event hop;
  hop.kind = EventKind::kHopSend;
  hop.at = SimTime::millis(2);
  hop.node = 1;
  hop.subject = 4;
  hop.bytes = 512;
  EXPECT_EQ(TraceSink::to_jsonl(hop),
            R"({"t":0.002000,"kind":"hop_send","node":1,"query":0,)"
            R"("subject":4,"bytes":512,"value":0})");

  // Every kind has a stable, non-"?" name, and each JSONL line parses back
  // as JSON with the expected fields.
  for (int k = 0; k <= static_cast<int>(EventKind::kRecoveryHello); ++k) {
    Event e;
    e.kind = static_cast<EventKind>(k);
    EXPECT_STRNE(to_string(e.kind), "?");
    std::string error;
    const json::Value parsed = json::Value::parse(TraceSink::to_jsonl(e), &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(parsed.find("kind")->as_string(), to_string(e.kind));
  }
}

TEST(TraceSink, RingAndJsonlAndCounts) {
  std::ostringstream jsonl;
  TraceSink::Options opts;
  opts.ring_capacity = 2;
  opts.jsonl = &jsonl;
  TraceSink sink(opts);

  for (int i = 0; i < 3; ++i) {
    Event e;
    e.kind = EventKind::kFetch;
    e.at = SimTime::seconds(i);
    e.query = 42;
    sink.emit(e);
  }
  EXPECT_EQ(sink.emitted(), 3u);
  EXPECT_EQ(sink.kind_counts()[static_cast<std::size_t>(EventKind::kFetch)], 3u);
  const auto ring = sink.ring_snapshot();
  ASSERT_EQ(ring.size(), 2u);  // bounded: oldest evicted
  EXPECT_EQ(ring[0].at, SimTime::seconds(1));
  // One line per event.
  std::istringstream lines(jsonl.str());
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    std::string error;
    (void)json::Value::parse(line, &error);
    EXPECT_TRUE(error.empty()) << error;
    ++n;
  }
  EXPECT_EQ(n, 3);
}

TEST(TraceSink, DerivesDecisionTelemetry) {
  TraceSink sink;
  const auto emit = [&](EventKind kind, double at_s, std::uint64_t query,
                        std::uint64_t subject = 0, std::uint64_t bytes = 0,
                        double value = 0.0) {
    sink.emit(Event{kind, SimTime::seconds(at_s), 1, query, subject, bytes,
                    value});
  };

  // Query 1: issued at t=0 with deadline 100; two fetches (300 B requests),
  // one object (5000 B), labels evaluated at t=2 and t=5, decided at t=10.
  emit(EventKind::kQueryIssue, 0.0, 1, 2, 0, 100.0);
  emit(EventKind::kFetch, 1.0, 1, 7, 300);
  emit(EventKind::kFetch, 2.0, 1, 8, 300);
  emit(EventKind::kObjectRx, 4.0, 1, 7, 5000);
  emit(EventKind::kLabelSettle, 4.0, 1, 11, 0, 2.0);
  emit(EventKind::kLabelSettle, 6.0, 1, 12, 0, 5.0);
  emit(EventKind::kDecide, 10.0, 1, 0, 0, 10.0);

  // Query 2: issued then expired — contributes nothing.
  emit(EventKind::kQueryIssue, 0.0, 2, 1, 0, 50.0);
  emit(EventKind::kExpire, 50.0, 2);

  const DecisionTelemetry& t = sink.decision_telemetry();
  ASSERT_EQ(t.age_upon_decision_s.count(), 1u);
  // Oldest evidence was evaluated at t=2; decided at t=10 → age 8 s.
  EXPECT_DOUBLE_EQ(t.age_upon_decision_s.sum(), 8.0);
  ASSERT_EQ(t.slack_at_decision_s.count(), 1u);
  // Deadline 100, decided at 10 → slack 90 s.
  EXPECT_DOUBLE_EQ(t.slack_at_decision_s.sum(), 90.0);
  ASSERT_EQ(t.bytes_per_decision.count(), 1u);
  // 2 requests × 300 B + 5000 B object.
  EXPECT_DOUBLE_EQ(t.bytes_per_decision.sum(), 5600.0);
}

TEST(TraceSink, LabelSettleKeepsLatestEvaluation) {
  TraceSink sink;
  sink.emit(Event{EventKind::kQueryIssue, SimTime::zero(), 1, 1, 0, 0, 30.0});
  // Same label settled twice (refetch): age counts the freshest evaluation.
  sink.emit(Event{EventKind::kLabelSettle, SimTime::seconds(2), 1, 1, 5, 0, 1.0});
  sink.emit(Event{EventKind::kLabelSettle, SimTime::seconds(8), 1, 1, 5, 0, 7.0});
  sink.emit(Event{EventKind::kDecide, SimTime::seconds(10), 1, 1, 0, 0, 10.0});
  EXPECT_DOUBLE_EQ(sink.decision_telemetry().age_upon_decision_s.sum(), 3.0);
}

// ---------------------------------------------------------------------------
// Observation-only guarantee
// ---------------------------------------------------------------------------

TEST(TraceSink, AttachingSinkIsBitForBitInvisible) {
  // The tentpole invariant, pinned: a scenario run with a fully-enabled
  // sink (ring + JSONL + derivation) must produce exactly the trajectory
  // of a run without one — same metrics, traffic, event count, outcomes.
  scenario::ScenarioConfig cfg;
  cfg.node_count = 12;
  cfg.queries_per_node = 2;
  cfg.horizon = SimTime::seconds(120);
  cfg.seed = 7;

  const auto bare = scenario::run_route_scenario(cfg);

  std::ostringstream jsonl;
  TraceSink::Options opts;
  opts.ring_capacity = 64;
  opts.jsonl = &jsonl;
  TraceSink sink(opts);
  cfg.trace_sink = &sink;
  const auto traced = scenario::run_route_scenario(cfg);

  EXPECT_EQ(traced.events, bare.events);
  EXPECT_EQ(traced.queries, bare.queries);
  EXPECT_EQ(traced.metrics, bare.metrics);  // every AthenaMetrics field
  EXPECT_EQ(traced.traffic, bare.traffic);  // every TrafficStats field
  // Per-class totals, audit counts and the per-query outcome digest.
  EXPECT_EQ(traced.totals, bare.totals);
  EXPECT_GT(bare.totals.normal.decided, 0u);

  // And the sink actually observed the run.
  EXPECT_GT(sink.emitted(), 0u);
  EXPECT_GT(sink.kind_counts()[static_cast<std::size_t>(EventKind::kQueryIssue)],
            0u);
  EXPECT_GT(sink.kind_counts()[static_cast<std::size_t>(EventKind::kHopSend)],
            0u);
  EXPECT_FALSE(jsonl.str().empty());
}

TEST(TraceSink, TracedRunsAreDeterministic) {
  // Two traced runs of the same seed produce identical JSONL streams.
  const auto run = [] {
    scenario::ScenarioConfig cfg;
    cfg.node_count = 10;
    cfg.queries_per_node = 1;
    cfg.horizon = SimTime::seconds(60);
    cfg.seed = 3;
    std::ostringstream jsonl;
    TraceSink::Options opts;
    opts.jsonl = &jsonl;
    TraceSink sink(opts);
    cfg.trace_sink = &sink;
    (void)scenario::run_route_scenario(cfg);
    return jsonl.str();
  };
  const std::string first = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(run(), first);
}

// ---------------------------------------------------------------------------
// BenchReport
// ---------------------------------------------------------------------------

TEST(BenchReport, RoundTripsAndValidates) {
  BenchReport report("unit");
  RunningStats stats;
  stats.add(1.0);
  stats.add(2.0);
  stats.add(3.0);
  report.add_metric("lvfl", "resolution_ratio", stats);
  report.add_metric("lvfl", "total_megabytes", stats);
  report.add_metric("cmp", "resolution_ratio", stats);
  Histogram h(time_buckets_s());
  h.add(0.05);
  h.add(3.0);
  h.add(1000.0);
  report.add_histogram("lvfl", "age_upon_decision_s", h);

  const std::string dumped = report.to_json().dump(2);
  std::string error;
  const json::Value parsed = json::Value::parse(dumped, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_TRUE(validate_bench_report(parsed, &error)) << error;

  // Round trip contains every registered metric with its summary intact.
  const json::Value* lvfl = parsed.find("schemes")->find("lvfl");
  ASSERT_NE(lvfl, nullptr);
  const json::Value* metrics = lvfl->find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->as_object().size(), 2u);
  const json::Value* ratio = metrics->find("resolution_ratio");
  ASSERT_NE(ratio, nullptr);
  EXPECT_DOUBLE_EQ(ratio->find("mean")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(ratio->find("count")->as_number(), 3.0);
  const json::Value* hist =
      lvfl->find("histograms")->find("age_upon_decision_s");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->find("counts")->as_array().size(),
            hist->find("bounds")->as_array().size() + 1);
  EXPECT_DOUBLE_EQ(hist->find("count")->as_number(), 3.0);
  EXPECT_NE(parsed.find("schemes")->find("cmp"), nullptr);
}

TEST(BenchReport, ValidatorRejectsBrokenReports) {
  std::string error;
  const auto invalid = [&](const char* text) {
    const json::Value v = json::Value::parse(text);
    return !validate_bench_report(v, &error);
  };
  EXPECT_TRUE(invalid("[]"));
  EXPECT_TRUE(invalid(R"({"bench":"x","schema_version":2,"schemes":{}})"));
  EXPECT_TRUE(invalid(R"({"bench":"x","schema_version":1,"schemes":{}})"));
  EXPECT_TRUE(invalid(
      R"({"bench":"x","schema_version":1,"schemes":{"a":{}}})"));
  // Metric summary missing a field.
  EXPECT_TRUE(invalid(
      R"({"bench":"x","schema_version":1,)"
      R"("schemes":{"a":{"metrics":{"m":{"count":1,"mean":1}}}}})"));
  // Histogram with |counts| != |bounds|+1.
  EXPECT_TRUE(invalid(
      R"({"bench":"x","schema_version":1,"schemes":{"a":{"metrics":{},)"
      R"("histograms":{"h":{"count":1,"sum":1,"mean":1,"min":1,"max":1,)"
      R"("bounds":[1,2],"counts":[1,2]}}}}})"));
  EXPECT_FALSE(error.empty());
}

TEST(BenchReport, EnvDisableSkipsWriting) {
  setenv("DDE_BENCH_REPORT", "0", 1);
  BenchReport report("disabled_probe");
  RunningStats s;
  s.add(1.0);
  report.add_metric("x", "m", s);
  EXPECT_EQ(report.write(), "");
  unsetenv("DDE_BENCH_REPORT");
}

}  // namespace
}  // namespace dde::obs
