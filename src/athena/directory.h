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
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "coverage/set_cover.h"
#include "decision/metadata.h"
#include "net/topology.h"
#include "world/sensor_field.h"

namespace dde::athena {

/// Global advertisement index + cost model. One per run: select_sources
/// reuses working memory held here, so a Directory is not for concurrent
/// use.
class Directory {
 public:
  /// `host_of_sensor[i]` = network node hosting sensor i.
  /// `p_true[label]` = estimated probability that the label is true
  /// (e.g. the stationary viability probability of the segment); 0.5
  /// (uninformative) for labels past its end.
  Directory(const net::Topology& topo, const world::SensorField& field,
            std::vector<NodeId> host_of_sensor, std::vector<double> p_true);

  /// Sources whose evidence can resolve `label`, in sensor order (empty if
  /// none). A sensor listing the label's segment twice appears twice.
  [[nodiscard]] std::span<const SourceId> sources_for(LabelId label) const {
    if (label.value() >= label_sources_at_.size() - 1) return {};
    const std::uint32_t begin = label_sources_at_[label.value()];
    return {label_sources_.data() + begin,
            label_sources_at_[label.value() + 1] - begin};
  }

  /// The topology retrieval costs and latencies are computed over.
  [[nodiscard]] const net::Topology& topology() const noexcept { return topo_; }

  /// The node hosting `source`.
  [[nodiscard]] NodeId host(SourceId source) const {
    return host_of_sensor_[index(source)];
  }

  /// Freshness interval of `source`'s objects.
  [[nodiscard]] SimTime validity(SourceId source) const {
    return validity_[index(source)];
  }

  /// Labels a source's objects can resolve, in the order its sensor lists
  /// their segments (repeats kept).
  [[nodiscard]] std::span<const LabelId> labels_of(SourceId source) const {
    const std::size_t i = index(source);
    return {source_labels_.data() + source_labels_at_[i],
            source_labels_at_[i + 1] - source_labels_at_[i]};
  }

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
    /// The sources to request for batch issue, ascending, each with the end
    /// of its labels in `request_labels` (see requested()).
    std::vector<std::pair<SourceId, std::uint32_t>> requests;
    std::vector<LabelId> request_labels;
    /// Labels no source covers.
    std::vector<LabelId> uncovered;

    /// The needed labels that requests[i]'s source covers, ascending.
    [[nodiscard]] std::span<const LabelId> requested(std::size_t i) const {
      const std::uint32_t begin = i == 0 ? 0 : requests[i - 1].second;
      return std::span<const LabelId>(request_labels)
          .subspan(begin, requests[i].second - begin);
    }

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
  ///
  /// Time is linear in the (label, source) pairs of `labels`, plus one
  /// step per 64 labels and per 64 sources of the directory.
  [[nodiscard]] Selection select_sources(
      const std::vector<LabelId>& labels, NodeId origin, bool minimize,
      std::span<const SourceId> exclude = {}) const;

 private:
  /// `source`'s dense index; throws std::out_of_range for an unknown one.
  [[nodiscard]] std::size_t index(SourceId source) const {
    if (!source.valid() || source.value() >= host_of_sensor_.size()) {
      throw std::out_of_range("Directory: unknown source");
    }
    return source.value();
  }

  /// select_sources' working memory. The per-label and per-source arrays
  /// are back at their resting values between calls.
  struct Scratch {
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};
    /// A source's state while a call runs: the last element it was counted
    /// for (kNone when it is not a candidate), and its element count, then
    /// its fill cursor.
    struct PerSource {
      std::uint32_t last = kNone;
      std::uint32_t count = 0;
    };
    std::vector<PerSource> source;
    /// One bit per label and per source, set while a call collects the
    /// needed labels and the candidates; reading them out word by word
    /// lists each set ascending without a sort.
    std::vector<std::uint64_t> label_bits;
    std::vector<std::uint64_t> source_bits;
    std::vector<LabelId> needed;       ///< cover element i is needed[i]
    std::vector<std::pair<SourceId, std::uint32_t>> pairs;  ///< (source, element)
    std::vector<SourceId> candidates;  ///< ascending; set c is candidates[c]
    std::vector<double> costs;
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> elements;
    std::vector<std::size_t> all;      ///< 0 .. candidates - 1
    std::vector<std::uint32_t> best;   ///< per element: designated set
    coverage::GreedyScratch cover;
  };

  const net::Topology& topo_;
  // Per source, dense over sensor ids.
  std::vector<NodeId> host_of_sensor_;
  std::vector<std::uint64_t> object_bytes_;
  std::vector<SimTime> validity_;
  /// Source → labels: labels_of(s) is source_labels_[source_labels_at_[s]
  /// .. source_labels_at_[s + 1]).
  std::vector<std::uint32_t> source_labels_at_;
  std::vector<LabelId> source_labels_;
  /// Label → sources, likewise; dense over label ids (segment ids are small
  /// and contiguous).
  std::vector<std::uint32_t> label_sources_at_;
  std::vector<SourceId> label_sources_;
  /// p_true_[label]; 0.5 (uninformative) past its end.
  std::vector<double> p_true_;
  mutable Scratch scratch_;
};

}  // namespace dde::athena
