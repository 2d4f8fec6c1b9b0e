// Semantic lookup service (stands in for [8], [9] of the paper).
//
// The directory answers "which sources can supply evidence for this label,
// where do they live, and what will retrieval roughly cost?". The paper
// treats this service as given; we implement it as a consistent global
// index built at scenario setup — sources advertise (Sec. II-B) and every
// node can query the index. It also hosts the source-selection step
// (Sec. III-B / [10]) as a weighted set cover over the query's labels.
#pragma once

#include <algorithm>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "coverage/set_cover.h"
#include "decision/metadata.h"
#include "net/topology.h"
#include "world/sensor_field.h"

namespace dde::athena {

/// Global advertisement index + cost model.
class Directory {
 public:
  /// `host_of_sensor[i]` = network node hosting sensor i.
  /// `p_true[label]` = estimated probability that the label is true
  /// (e.g. the stationary viability probability of the segment).
  Directory(const net::Topology& topo, const world::SensorField& field,
            std::vector<NodeId> host_of_sensor,
            std::unordered_map<LabelId, double> p_true);

  /// Sources whose evidence can resolve `label` (empty if none).
  [[nodiscard]] const std::vector<SourceId>& sources_for(LabelId label) const;

  /// The topology retrieval costs and latencies are computed over.
  [[nodiscard]] const net::Topology& topology() const noexcept { return topo_; }

  /// The node hosting `source`.
  [[nodiscard]] NodeId host(SourceId source) const;

  [[nodiscard]] const world::SensorInfo& sensor(SourceId source) const {
    return field_.sensor(source);
  }

  /// Labels a source's objects can resolve.
  [[nodiscard]] std::vector<LabelId> labels_of(SourceId source) const;

  /// Retrieval cost of `source`'s object as seen from `origin`:
  /// object bytes × path hop count (bytes crossing each hop are paid once).
  [[nodiscard]] double retrieval_cost(SourceId source, NodeId origin) const;

  /// Rough retrieval latency estimate from `origin` (request + transfer).
  [[nodiscard]] SimTime retrieval_latency(SourceId source, NodeId origin) const;

  /// Planner metadata for `label` when its evidence comes from `source`.
  [[nodiscard]] decision::LabelMeta meta(LabelId label, SourceId source,
                                         NodeId origin) const;

  /// Source selection for a query.
  struct Selection {
    /// (label, the source a retrieval for that label targets), ascending
    /// by label and one entry per covered label.
    std::vector<std::pair<LabelId, SourceId>> designated;
    /// All (source, labels it is designated for) pairs, for batch issue.
    std::vector<std::pair<SourceId, std::vector<LabelId>>> requests;
    /// Labels no source covers.
    std::vector<LabelId> uncovered;

    /// The source designated for `label` (invalid if none is).
    [[nodiscard]] SourceId designated_source(LabelId label) const {
      const auto it = std::lower_bound(
          designated.begin(), designated.end(), label,
          [](const auto& entry, LabelId l) { return entry.first < l; });
      return it != designated.end() && it->first == label ? it->second
                                                          : SourceId{};
    }
  };

  /// Choose sources to cover `labels` as seen from `origin`.
  /// minimize=true → greedy weighted set cover (the `slt` step, [10]);
  /// minimize=false → every covering source is requested (the `cmp`
  /// baseline: each label is designated its cheapest source, but the
  /// request list contains all covering sources).
  ///
  /// `exclude` (ascending) soft-avoids sources a caller has given up on
  /// — failover after retry exhaustion (src/fault recovery): an excluded
  /// source is skipped unless it is the *only* one covering a label, in
  /// which case it stays eligible for that label rather than abandoning
  /// the query outright.
  [[nodiscard]] Selection select_sources(
      const std::vector<LabelId>& labels, NodeId origin, bool minimize,
      std::span<const SourceId> exclude = {}) const;

 private:
  const net::Topology& topo_;
  const world::SensorField& field_;
  std::vector<NodeId> host_of_sensor_;
  /// sources_for_label_[label] = covering sources, in sensor order; dense
  /// over label ids (segment ids are small and contiguous).
  std::vector<std::vector<SourceId>> sources_for_label_;
  /// p_true_[label]; 0.5 (uninformative) where the map had no entry.
  std::vector<double> p_true_;
};

}  // namespace dde::athena
