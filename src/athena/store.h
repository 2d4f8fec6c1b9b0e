// What an Athena node knows (Sec. VI-C/D): its object and label caches,
// the per-label corroboration beliefs, and the objects it has annotated.
#pragma once

#include <algorithm>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "athena/config.h"
#include "athena/metrics.h"
#include "cache/ttl_cache.h"
#include "common/flat_hash.h"
#include "common/sim_time.h"
#include "fault/restart_policy.h"
#include "fusion/belief.h"
#include "world/sensor_field.h"

namespace dde::athena {

/// How long a dedup entry outlives what it guards: an invalidation's flood
/// dedup entry lives this long after first sight, an ingest-dedup entry
/// this long past its object's expiry. Duplicates can only arrive while
/// copies are still in flight, so any value far above the network's drain
/// time is safe; the node's GC then collects the entries.
inline constexpr SimTime kDedupTtl = SimTime::seconds(3600);

class Store {
 public:
  /// `self` signs the node's own annotations; `field` is sampled for the
  /// sensors the node hosts.
  Store(NodeId self, const AthenaConfig& config, world::SensorField& field,
        AthenaMetrics& metrics)
      : self_(self.value()),
        corroboration_confidence_(config.corroboration_confidence),
        field_(field),
        metrics_(metrics),
        object_cache_(config.object_cache_capacity),
        label_cache_(kLabelCacheCapacity) {}

  /// Read-only views: peek() and stats() have no side effects.
  [[nodiscard]] const auto& objects() const noexcept { return object_cache_; }
  [[nodiscard]] const auto& labels() const noexcept { return label_cache_; }

  void put_object(const world::ObjectRef& obj, SimTime now) {
    if (obj->fresh_at(now)) {
      object_cache_.put(obj->source, obj, obj->expires_at(), now);
    }
  }
  /// Fresh object for `source` from the cache or, if the node hosts the
  /// sensor, a fresh sample. Null otherwise.
  [[nodiscard]] world::ObjectRef local_object(SourceId source, bool hosted,
                                              SimTime now) {
    if (const auto* obj = object_cache_.peek(source, now)) return *obj;
    if (!hosted) return nullptr;
    world::ObjectRef obj = field_.sample(source, now);
    ++metrics_.sensor_samples;
    object_cache_.put(source, obj, obj->expires_at(), now);
    return obj;
  }

  /// The cached values of `labels` if every one is cached fresh; empty
  /// otherwise.
  [[nodiscard]] std::vector<decision::LabelValue> fresh_labels(
      const std::vector<LabelId>& labels, SimTime now) const {
    std::vector<decision::LabelValue> values;
    for (LabelId l : labels) {
      const auto* v = label_cache_.peek(l, now);
      if (v == nullptr) return {};
      values.push_back(*v);
    }
    return values;
  }
  /// The one label-cache put path: cache each of `values` that is fresh and
  /// outlives the cached value of its label. Returns those, in order.
  std::vector<decision::LabelValue> put_labels(
      std::span<const decision::LabelValue> values, SimTime now) {
    std::vector<decision::LabelValue> fresher;
    for (const auto& v : values) {
      if (v.expires_at() <= now) continue;
      const auto* existing = label_cache_.peek(v.label, now);
      if (existing && existing->expires_at() >= v.expires_at()) continue;
      label_cache_.put(v.label, v, v.expires_at(), now);
      fresher.push_back(v);
    }
    return fresher;
  }

  [[nodiscard]] bool ingested(ObjectId object) const {
    return ingested_.find(object.value()) != nullptr;
  }
  /// Ingest-dedup entries currently held (swept by sweep()).
  [[nodiscard]] std::size_t ingested_entries() const noexcept {
    return ingested_.size();
  }
  /// Drop ingest-dedup entries whose drain margin has passed.
  void sweep(SimTime now) {
    ingested_.erase_if([now](std::uint64_t, SimTime t) { return t <= now; });
  }
  /// The fresh label values `obj` yields at its first ingest here, or
  /// nullopt if it was ingested before: re-delivering an object adds no
  /// knowledge, which also bounds the try_local/deliver_object recursion
  /// when corroboration leaves labels undecided. With noisy sensors,
  /// readings feed per-label Bayesian beliefs and only decided labels
  /// emerge (Sec. IV-B); otherwise a single reading decides.
  std::optional<std::vector<decision::LabelValue>> ingest(
      const world::EvidenceObject& obj, SimTime now) {
    if (!ingested_.insert_if_absent(obj.id.value(),
                                    obj.expires_at() + kDedupTtl)) {
      return std::nullopt;
    }
    if (!obj.fresh_at(now)) ++metrics_.stale_arrivals;
    std::vector<decision::LabelValue> values =
        corroboration_confidence_ > 0.5 ? corroborate(obj, now)
                                        : annotate(obj);
    std::erase_if(values, [now](const decision::LabelValue& v) {
      return v.expires_at() <= now;
    });
    return values;
  }

  /// Purge `labels`: their cached values and beliefs, and every cached
  /// object whose readings evidence one of them.
  void invalidate(const std::vector<LabelId>& labels) {
    const std::unordered_set<LabelId> set(labels.begin(), labels.end());
    for (LabelId l : labels) {
      label_cache_.erase_key(l);
      beliefs_.erase(l);
    }
    object_cache_.erase_if([&](SourceId, const world::ObjectRef& obj) {
      return std::any_of(obj->readings.begin(), obj->readings.end(),
                         [&](const world::Reading& r) {
                           return set.contains(LabelId{r.segment.value()});
                         });
    });
  }

  /// A warm restart recovers the store from local storage; cold loses it.
  void on_crash(fault::RestartPolicy policy) {
    if (policy != fault::RestartPolicy::kCold) return;
    object_cache_.clear();
    label_cache_.clear();
    beliefs_.clear();
    ingested_.clear();
  }

 private:
  static constexpr std::size_t kLabelCacheCapacity = 512;

  [[nodiscard]] std::vector<decision::LabelValue> annotate(
      const world::EvidenceObject& obj) const {
    std::vector<decision::LabelValue> values;
    values.reserve(obj.readings.size());
    // Ascending segment order: the values feed label-share payloads and
    // per-query settle traces.
    for (const world::Reading& r : obj.readings) {
      decision::LabelValue v;
      v.label = LabelId{r.segment.value()};
      v.value = to_tristate(r.viable);
      v.evaluated_at = obj.captured_at;
      v.validity = obj.validity;
      v.annotator = self_;
      v.evidence.push_back(obj.id);
      values.push_back(std::move(v));
    }
    return values;
  }

  [[nodiscard]] std::vector<decision::LabelValue> corroborate(
      const world::EvidenceObject& obj, SimTime now) {
    std::vector<decision::LabelValue> decided;
    if (!obj.fresh_at(now)) return decided;  // expired observations are void
    // Ascending segment order: decided labels flow into shares and settle
    // traces.
    for (const world::Reading& reading : obj.readings) {
      const LabelId label{reading.segment.value()};
      auto& entry = beliefs_[label];
      if (now >= entry.window_expires) entry = BeliefEntry{};  // window over
      const auto at = std::lower_bound(entry.observed.begin(),
                                       entry.observed.end(), obj.id);
      if (at != entry.observed.end() && *at == obj.id) continue;  // counted
      entry.observed.insert(at, obj.id);
      // Clamp into the informative range; a reliability at or below 0.5
      // carries no information.
      const double r = std::clamp(obj.reliability, 0.5, 0.999);
      entry.belief.observe(reading.viable, r);
      entry.window_expires = std::min(entry.window_expires, obj.expires_at());
      const Tristate verdict = entry.belief.decided(corroboration_confidence_);
      if (verdict == Tristate::kUnknown) continue;
      decision::LabelValue v;
      v.label = label;
      v.value = verdict;
      v.evaluated_at = now;
      v.validity = entry.window_expires - now;
      v.annotator = self_;
      for (const ObjectId id : entry.observed) v.evidence.push_back(id);
      decided.push_back(std::move(v));
    }
    return decided;
  }

  AnnotatorId self_;
  double corroboration_confidence_;
  world::SensorField& field_;
  AthenaMetrics& metrics_;

  cache::TtlCache<SourceId, world::ObjectRef> object_cache_;
  cache::TtlCache<LabelId, decision::LabelValue> label_cache_;

  /// Per-label corroboration state (only used when the corroboration
  /// confidence is enabled). Observations expire with their objects: the
  /// window ends at the earliest expiry among counted observations.
  struct BeliefEntry {
    fusion::LabelBelief belief;
    SimTime window_expires = SimTime::max();
    std::vector<ObjectId> observed;  ///< ascending
  };
  std::unordered_map<LabelId, BeliefEntry> beliefs_;
  /// Ingest dedup: object id → expiry (the object's own expiry plus
  /// kDedupTtl, so copies still in flight after it expires are dropped
  /// too). Swept by the node's GC.
  FlatU64Map<SimTime> ingested_;
};

}  // namespace dde::athena
