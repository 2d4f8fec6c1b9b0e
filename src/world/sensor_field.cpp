#include "world/sensor_field.h"

#include <algorithm>
#include <stdexcept>

#include "common/contracts.h"

namespace dde::world {

SensorField::SensorField(const GridMap& map, ViabilityProcess& truth,
                         const SensorFieldConfig& config, Rng& rng)
    : map_(map), truth_(truth) {
  DDE_CHECK(config.sensor_count > 0,
            "SensorField: need at least one sensor");
  DDE_CHECK(config.min_object_bytes <= config.max_object_bytes,
            "SensorField: min_object_bytes must not exceed max_object_bytes");
  const auto fast_count = static_cast<std::size_t>(
      config.fast_ratio * static_cast<double>(config.sensor_count) + 0.5);
  for (std::size_t i = 0; i < config.sensor_count; ++i) {
    SensorInfo s;
    s.id = SourceId{i};
    // Place at a random position; retry until the footprint is non-empty.
    for (int attempt = 0; attempt < 1000; ++attempt) {
      s.x = rng.uniform(0.0, static_cast<double>(map.width()));
      s.y = rng.uniform(0.0, static_cast<double>(map.height()));
      s.covers = map.segments_near(s.x, s.y, config.coverage_radius);
      if (!s.covers.empty()) break;
    }
    if (s.covers.empty()) {
      throw std::runtime_error("SensorField: could not place sensor with coverage");
    }
    s.object_bytes = static_cast<std::uint64_t>(rng.between(
        static_cast<std::int64_t>(config.min_object_bytes),
        static_cast<std::int64_t>(config.max_object_bytes)));
    s.rate = i < fast_count ? ChangeRate::kFast : ChangeRate::kSlow;
    s.validity = s.rate == ChangeRate::kFast ? config.fast_validity
                                             : config.slow_validity;
    s.reliability = config.reliability;
    sensors_.push_back(std::move(s));
  }
  // Shuffle which sensors are fast so rate does not correlate with position.
  std::vector<ChangeRate> rates;
  rates.reserve(sensors_.size());
  for (const auto& s : sensors_) rates.push_back(s.rate);
  rng.shuffle(rates);
  for (std::size_t i = 0; i < sensors_.size(); ++i) {
    sensors_[i].rate = rates[i];
    sensors_[i].validity = rates[i] == ChangeRate::kFast
                               ? config.fast_validity
                               : config.slow_validity;
  }
}

SensorField::SensorField(const GridMap& map, ViabilityProcess& truth,
                         std::vector<SensorInfo> sensors)
    : map_(map), truth_(truth), sensors_(std::move(sensors)) {
  for (std::size_t i = 0; i < sensors_.size(); ++i) {
    DDE_CHECK(sensors_[i].id == SourceId{i},
              "SensorField: sensor ids must be dense and in order");
    DDE_CHECK(!sensors_[i].covers.empty(),
              "SensorField: every sensor must cover at least one segment");
  }
}

const SensorInfo& SensorField::sensor(SourceId id) const {
  if (!id.valid() || id.value() >= sensors_.size()) {
    throw std::out_of_range("SensorField::sensor: unknown source id");
  }
  return sensors_[id.value()];
}

std::vector<SourceId> SensorField::sensors_covering(SegmentId segment) const {
  std::vector<SourceId> out;
  for (const auto& s : sensors_) {
    if (std::find(s.covers.begin(), s.covers.end(), segment) != s.covers.end()) {
      out.push_back(s.id);
    }
  }
  return out;
}

std::vector<SegmentId> SensorField::covered_segments() const {
  std::vector<SegmentId> out;
  for (const auto& s : sensors_) {
    out.insert(out.end(), s.covers.begin(), s.covers.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

ObjectRef SensorField::sample(SourceId id, SimTime now) {
  const SensorInfo& s = sensor(id);
  auto obj = std::make_shared<EvidenceObject>();
  obj->id = ObjectId{samples_};
  obj->source = id;
  obj->bytes = s.object_bytes;
  obj->captured_at = now;
  obj->validity = s.validity;
  obj->reliability = s.reliability;
  obj->readings.reserve(s.covers.size());
  for (SegmentId seg : s.covers) {
    bool reading = truth_.viable_at(seg, now);
    if (s.reliability < 1.0 && !noise_rng_.chance(s.reliability)) {
      reading = !reading;  // sensor error
    }
    auto& readings = obj->readings;
    const auto it = std::lower_bound(
        readings.begin(), readings.end(), seg,
        [](const Reading& r, SegmentId key) { return r.segment < key; });
    if (it == readings.end() || it->segment != seg) {
      readings.insert(it, Reading{seg, reading});
    }
  }
  ++samples_;
  return obj;
}

}  // namespace dde::world
