#include "athena/directory.h"

#include <algorithm>
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
    const std::unordered_set<SourceId>* exclude) const {
  Selection sel;
  for (LabelId l : labels) {
    if (sources_for(l).empty()) sel.uncovered.push_back(l);
  }
  std::vector<LabelId> needed = labels;
  std::sort(needed.begin(), needed.end());
  needed.erase(std::unique(needed.begin(), needed.end()), needed.end());

  // Invert labels → eligible sources once. An excluded source is eligible
  // for a label only if nothing else covers it. Sorting the (source, label)
  // pairs groups them into candidates in ascending source order, each with
  // its covered needed labels in ascending order.
  const bool excluding = exclude != nullptr && !exclude->empty();
  auto excluded = [&](SourceId s) { return excluding && exclude->contains(s); };
  std::vector<std::pair<SourceId, LabelId>> pairs;
  for (LabelId l : needed) {
    const auto& srcs = sources_for(l);
    const bool all_excluded = std::all_of(srcs.begin(), srcs.end(), excluded);
    for (SourceId s : srcs) {
      if (all_excluded || !excluded(s)) pairs.emplace_back(s, l);
    }
  }
  std::sort(pairs.begin(), pairs.end());

  struct Candidate {
    SourceId source;
    double cost = 0.0;
    std::vector<LabelId> eligible;  ///< needed labels it may serve, ascending
    bool chosen = false;
  };
  std::vector<Candidate> candidates;
  for (const auto& [s, l] : pairs) {
    if (candidates.empty() || candidates.back().source != s) {
      candidates.push_back(Candidate{s, retrieval_cost(s, origin), {}, false});
    }
    candidates.back().eligible.push_back(l);
  }

  // Chosen candidates, in request-list order.
  std::vector<std::size_t> chosen;
  if (minimize) {
    // Weighted set cover over the needed labels.
    coverage::CoverInstance inst;
    for (LabelId l : needed) {
      if (!sources_for(l).empty()) {
        inst.universe.push_back(static_cast<std::uint32_t>(l.value()));
      }
    }
    for (const Candidate& c : candidates) {
      coverage::CoverSet set;
      set.cost = c.cost;
      for (LabelId l : c.eligible) {
        set.elements.push_back(static_cast<std::uint32_t>(l.value()));
      }
      inst.sets.push_back(std::move(set));
    }
    chosen = coverage::greedy_cover(inst).chosen;
  } else {
    chosen.resize(candidates.size());
    for (std::size_t i = 0; i < chosen.size(); ++i) chosen[i] = i;
  }
  for (std::size_t idx : chosen) candidates[idx].chosen = true;

  // Designate, for each label, the cheapest chosen source eligible for it
  // (the first in sources_for order on a tie).
  for (LabelId l : needed) {
    const Candidate* best = nullptr;
    for (SourceId s : sources_for(l)) {
      const auto it = std::lower_bound(
          candidates.begin(), candidates.end(), s,
          [](const Candidate& c, SourceId v) { return c.source < v; });
      if (it == candidates.end() || it->source != s || !it->chosen ||
          !std::binary_search(it->eligible.begin(), it->eligible.end(), l)) {
        continue;
      }
      if (best == nullptr || it->cost < best->cost) best = &*it;
    }
    if (best != nullptr) sel.designated[l] = best->source;
  }

  // Request list: every chosen source with the needed labels it covers.
  for (std::size_t idx : chosen) {
    sel.requests.emplace_back(candidates[idx].source,
                              std::move(candidates[idx].eligible));
  }
  return sel;
}

}  // namespace dde::athena
