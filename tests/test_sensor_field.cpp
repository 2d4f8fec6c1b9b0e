#include "world/sensor_field.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

namespace dde::world {
namespace {

struct Fixture {
  GridMap map{6, 6};
  ViabilityProcess truth;
  Rng rng{11};

  explicit Fixture(double p = 0.7)
      : truth(std::vector<SegmentDynamics>(map.segment_count(),
                                           SegmentDynamics{p, SimTime::seconds(600)}),
              Rng(99)) {}
};

SensorFieldConfig small_config() {
  SensorFieldConfig c;
  c.sensor_count = 12;
  c.coverage_radius = 1.0;
  c.fast_ratio = 0.5;
  return c;
}

TEST(SensorField, DeploysRequestedCount) {
  Fixture f;
  SensorField field(f.map, f.truth, small_config(), f.rng);
  EXPECT_EQ(field.sensors().size(), 12u);
}

TEST(SensorField, EverySensorCoversSomething) {
  Fixture f;
  SensorField field(f.map, f.truth, small_config(), f.rng);
  for (const auto& s : field.sensors()) {
    EXPECT_FALSE(s.covers.empty());
    // Footprint geometry: covered segments near the sensor position.
    for (SegmentId seg : s.covers) {
      const auto& segment = f.map.segment(seg);
      EXPECT_LE(std::abs(segment.mid_x() - s.x), 1.0 + 1e-9);
      EXPECT_LE(std::abs(segment.mid_y() - s.y), 1.0 + 1e-9);
    }
  }
}

TEST(SensorField, ObjectSizesWithinRange) {
  Fixture f;
  auto cfg = small_config();
  cfg.min_object_bytes = 1000;
  cfg.max_object_bytes = 2000;
  SensorField field(f.map, f.truth, cfg, f.rng);
  for (const auto& s : field.sensors()) {
    EXPECT_GE(s.object_bytes, 1000u);
    EXPECT_LE(s.object_bytes, 2000u);
  }
}

TEST(SensorField, FastRatioRespected) {
  Fixture f;
  auto cfg = small_config();
  cfg.fast_ratio = 0.25;
  cfg.sensor_count = 20;
  SensorField field(f.map, f.truth, cfg, f.rng);
  const auto fast = std::count_if(
      field.sensors().begin(), field.sensors().end(),
      [](const SensorInfo& s) { return s.rate == ChangeRate::kFast; });
  EXPECT_EQ(fast, 5);
}

TEST(SensorField, ValidityMatchesCategory) {
  Fixture f;
  auto cfg = small_config();
  cfg.slow_validity = SimTime::seconds(500);
  cfg.fast_validity = SimTime::seconds(20);
  SensorField field(f.map, f.truth, cfg, f.rng);
  for (const auto& s : field.sensors()) {
    EXPECT_EQ(s.validity, s.rate == ChangeRate::kFast ? SimTime::seconds(20)
                                                      : SimTime::seconds(500));
  }
}

TEST(SensorField, SensorsCoveringInvertsCoverage) {
  Fixture f;
  SensorField field(f.map, f.truth, small_config(), f.rng);
  for (const auto& s : field.sensors()) {
    for (SegmentId seg : s.covers) {
      const auto covering = field.sensors_covering(seg);
      EXPECT_NE(std::find(covering.begin(), covering.end(), s.id),
                covering.end());
    }
  }
}

TEST(SensorField, CoveredSegmentsIsSortedUnion) {
  Fixture f;
  SensorField field(f.map, f.truth, small_config(), f.rng);
  const auto covered = field.covered_segments();
  EXPECT_TRUE(std::is_sorted(covered.begin(), covered.end()));
  EXPECT_EQ(std::adjacent_find(covered.begin(), covered.end()), covered.end());
  for (SegmentId seg : covered) {
    EXPECT_FALSE(field.sensors_covering(seg).empty());
  }
}

TEST(SensorField, SampleMatchesGroundTruth) {
  Fixture f;
  SensorField field(f.map, f.truth, small_config(), f.rng);
  const SimTime t = SimTime::seconds(123);
  for (const auto& s : field.sensors()) {
    const ObjectRef obj = field.sample(s.id, t);
    EXPECT_EQ(obj->source, s.id);
    EXPECT_EQ(obj->captured_at, t);
    EXPECT_EQ(obj->validity, s.validity);
    EXPECT_EQ(obj->bytes, s.object_bytes);
    EXPECT_EQ(obj->readings.size(), s.covers.size());
    for (SegmentId seg : s.covers) {
      const Reading* r = obj->reading(seg);
      ASSERT_NE(r, nullptr);
      EXPECT_EQ(r->viable, f.truth.viable_at(seg, t));
    }
  }
}

TEST(SensorField, SampleIdsAreUniqueAndCounted) {
  Fixture f;
  SensorField field(f.map, f.truth, small_config(), f.rng);
  const auto a = field.sample(SourceId{0}, SimTime::seconds(1));
  const auto b = field.sample(SourceId{0}, SimTime::seconds(2));
  const auto c = field.sample(SourceId{1}, SimTime::seconds(2));
  EXPECT_NE(a->id, b->id);
  EXPECT_NE(b->id, c->id);
  EXPECT_EQ(field.total_samples(), 3u);
}

TEST(SensorField, FreshnessWindow) {
  Fixture f;
  auto cfg = small_config();
  cfg.fast_ratio = 0.0;
  cfg.slow_validity = SimTime::seconds(100);
  SensorField field(f.map, f.truth, cfg, f.rng);
  const auto obj = field.sample(SourceId{0}, SimTime::seconds(50));
  EXPECT_TRUE(obj->fresh_at(SimTime::seconds(50)));
  EXPECT_TRUE(obj->fresh_at(SimTime::seconds(149)));
  EXPECT_FALSE(obj->fresh_at(SimTime::seconds(150)));
  EXPECT_EQ(obj->expires_at(), SimTime::seconds(150));
}

// Readings ascend by segment and keep what a hash map's emplace kept: one
// entry per segment, the first draw winning. Every listed segment is still
// read and noise-drawn: at reliability 0.7 a skipped draw would put the
// field's noise stream behind the reference's, and the flips of the later
// samples would disagree.
TEST(SensorField, ReadingsAscendAndKeepFirstDrawPerSegment) {
  for (const double reliability : {1.0, 0.7}) {
    SCOPED_TRACE(reliability);
    Fixture f;
    SensorInfo s;
    s.id = SourceId{0};
    s.covers = {SegmentId{5}, SegmentId{2}, SegmentId{9}, SegmentId{5},
                SegmentId{0}};
    s.object_bytes = 100;
    s.validity = SimTime::seconds(10);
    s.reliability = reliability;
    SensorField field(f.map, f.truth, {s});
    // The reference replays sample()'s draws on a copy of its noise stream.
    Rng noise{0xD0D0CAFEULL};
    for (int i = 0; i < 40; ++i) {
      const SimTime t = SimTime::seconds(37.0 * i);
      const ObjectRef obj = field.sample(s.id, t);
      std::unordered_map<SegmentId, bool> emplaced;
      for (SegmentId seg : s.covers) {
        bool reading = f.truth.viable_at(seg, t);
        if (reliability < 1.0 && !noise.chance(reliability)) reading = !reading;
        emplaced.emplace(seg, reading);
      }
      ASSERT_EQ(obj->readings.size(), emplaced.size());
      for (std::size_t k = 1; k < obj->readings.size(); ++k) {
        EXPECT_LT(obj->readings[k - 1].segment, obj->readings[k].segment);
      }
      for (const Reading& r : obj->readings) {
        ASSERT_TRUE(emplaced.contains(r.segment));
        EXPECT_EQ(r.viable, emplaced.at(r.segment)) << "sample " << i;
      }
    }
  }
}

TEST(SensorField, ThrowsOnUnknownSensor) {
  Fixture f;
  SensorField field(f.map, f.truth, small_config(), f.rng);
  EXPECT_THROW((void)field.sensor(SourceId{999}), std::out_of_range);
  EXPECT_THROW((void)field.sample(SourceId{999}, SimTime::zero()),
               std::out_of_range);
}

}  // namespace
}  // namespace dde::world
