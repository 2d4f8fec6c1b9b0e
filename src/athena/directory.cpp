#include "athena/directory.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/contracts.h"

namespace dde::athena {

Directory::Directory(const net::Topology& topo,
                     const world::SensorField& field,
                     std::vector<NodeId> host_of_sensor,
                     std::unordered_map<LabelId, double> p_true)
    : topo_(topo),
      field_(field),
      host_of_sensor_(std::move(host_of_sensor)) {
  DDE_CHECK(host_of_sensor_.size() == field.sensors().size(),
            "Directory: host_of_sensor must map every sensor to a node");
  for (const auto& s : field.sensors()) {
    for (SegmentId seg : s.covers) {
      if (seg.value() >= sources_for_label_.size()) {
        sources_for_label_.resize(seg.value() + 1);
      }
      sources_for_label_[seg.value()].push_back(s.id);
    }
  }
  // lint: ordered-fold — each entry writes its own slot, order-free.
  for (const auto& [label, p] : p_true) {
    if (label.value() >= p_true_.size()) {
      p_true_.resize(label.value() + 1, 0.5);
    }
    p_true_[label.value()] = p;
  }
}

const std::vector<SourceId>& Directory::sources_for(LabelId label) const {
  static const std::vector<SourceId> kEmpty;
  return label.value() < sources_for_label_.size()
             ? sources_for_label_[label.value()]
             : kEmpty;
}

NodeId Directory::host(SourceId source) const {
  if (!source.valid() || source.value() >= host_of_sensor_.size()) {
    throw std::out_of_range("Directory::host: unknown source");
  }
  return host_of_sensor_[source.value()];
}

std::vector<LabelId> Directory::labels_of(SourceId source) const {
  std::vector<LabelId> out;
  for (SegmentId seg : field_.sensor(source).covers) {
    out.push_back(LabelId{seg.value()});
  }
  return out;
}

double Directory::retrieval_cost(SourceId source, NodeId origin) const {
  const auto hops = topo_.hop_distance(origin, host(source));
  const double h = hops ? static_cast<double>(std::max<std::size_t>(*hops, 1))
                        : 1e9;  // unreachable → effectively infinite cost
  return static_cast<double>(field_.sensor(source).object_bytes) * h;
}

SimTime Directory::retrieval_latency(SourceId source, NodeId origin) const {
  const auto hops = topo_.hop_distance(origin, host(source));
  if (!hops) return SimTime::max();
  const auto h = static_cast<double>(std::max<std::size_t>(*hops, 1));
  // Transfer dominates: object bytes over a nominal 1 Mbps per hop, plus a
  // small per-hop request overhead.
  const double bytes = static_cast<double>(field_.sensor(source).object_bytes);
  return SimTime::seconds(h * (bytes * 8.0 / 1e6 + 0.005));
}

decision::LabelMeta Directory::meta(LabelId label, SourceId source,
                                    NodeId origin) const {
  decision::LabelMeta m;
  m.cost = retrieval_cost(source, origin);
  m.latency = retrieval_latency(source, origin);
  m.validity = field_.sensor(source).validity;
  m.p_true =
      label.value() < p_true_.size() ? p_true_[label.value()] : 0.5;
  return m;
}

Directory::Selection Directory::select_sources(
    const std::vector<LabelId>& labels, NodeId origin, bool minimize,
    std::span<const SourceId> exclude) const {
  Selection sel;
  // The distinct coverable labels, ascending: element i of the cover is
  // needed[i].
  std::vector<LabelId> needed;
  needed.reserve(labels.size());
  for (LabelId l : labels) {
    if (sources_for(l).empty()) {
      sel.uncovered.push_back(l);
    } else {
      needed.push_back(l);
    }
  }
  std::sort(needed.begin(), needed.end());
  needed.erase(std::unique(needed.begin(), needed.end()), needed.end());

  // Invert labels → eligible sources once. An excluded source is eligible
  // for a label only if nothing else covers it. Sorting the (source,
  // element) pairs groups them into candidates in ascending source order,
  // each with its elements ascending.
  auto excluded = [&](SourceId s) {
    return std::binary_search(exclude.begin(), exclude.end(), s);
  };
  std::vector<std::pair<SourceId, std::uint32_t>> pairs;
  for (std::size_t i = 0; i < needed.size(); ++i) {
    const auto& srcs = sources_for(needed[i]);
    const bool all_excluded = std::all_of(srcs.begin(), srcs.end(), excluded);
    for (SourceId s : srcs) {
      if (all_excluded || !excluded(s)) {
        pairs.emplace_back(s, static_cast<std::uint32_t>(i));
      }
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

  // Candidates as one flat array: candidate c is sources[c], costs
  // costs[c], and may serve the elements cover.set(c).
  std::vector<SourceId> sources;
  std::vector<double> costs;
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> elements;
  elements.reserve(pairs.size());
  for (const auto& [s, e] : pairs) {
    if (sources.empty() || sources.back() != s) {
      sources.push_back(s);
      costs.push_back(retrieval_cost(s, origin));
      offsets.push_back(static_cast<std::uint32_t>(elements.size()));
    }
    elements.push_back(e);
  }
  offsets.push_back(static_cast<std::uint32_t>(elements.size()));
  const coverage::FlatCover cover{needed.size(), costs, offsets, elements};

  // Chosen candidates, ascending: the request-list order.
  std::vector<std::size_t> chosen;
  if (minimize) {
    // Weighted set cover over the needed labels.
    chosen = coverage::greedy_cover(cover).chosen;
  } else {
    chosen.resize(sources.size());
    for (std::size_t c = 0; c < chosen.size(); ++c) chosen[c] = c;
  }
  // Designate, for each label, the cheapest chosen source eligible for it.
  // Candidates ascend by source id, and so do sources_for lists (sensor
  // ids are dense and in order), so keeping the first of equal costs picks
  // the first in sources_for order.
  constexpr auto kNone = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> best(needed.size(), kNone);
  for (std::size_t c : chosen) {
    for (std::uint32_t e : cover.set(c)) {
      if (best[e] == kNone || costs[c] < costs[best[e]]) best[e] = c;
    }
  }
  sel.designated.reserve(needed.size());
  for (std::size_t i = 0; i < needed.size(); ++i) {
    if (best[i] != kNone) {
      sel.designated.emplace_back(needed[i], sources[best[i]]);
    }
  }

  // Request list: every chosen source with the needed labels it covers.
  sel.requests.reserve(chosen.size());
  for (std::size_t c : chosen) {
    std::vector<LabelId> covered;
    covered.reserve(cover.set(c).size());
    for (std::uint32_t e : cover.set(c)) covered.push_back(needed[e]);
    sel.requests.emplace_back(sources[c], std::move(covered));
  }
  return sel;
}

}  // namespace dde::athena
