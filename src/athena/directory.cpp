#include "athena/directory.h"

#include <algorithm>
#include <bit>

#include "common/contracts.h"

namespace dde::athena {
namespace {

void set_bit(std::vector<std::uint64_t>& bits, std::uint64_t i) {
  bits[i / 64] |= std::uint64_t{1} << (i % 64);
}

/// Append the set bits of `bits` to `out` as ids, ascending, and clear them.
template <typename Id>
void drain_bits(std::vector<std::uint64_t>& bits, std::vector<Id>& out) {
  for (std::size_t w = 0; w < bits.size(); ++w) {
    for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
      out.push_back(Id{w * 64 + static_cast<unsigned>(std::countr_zero(word))});
    }
    bits[w] = 0;
  }
}

}  // namespace

Directory::Directory(const net::Topology& topo,
                     const world::SensorField& field,
                     std::vector<NodeId> host_of_sensor,
                     std::vector<double> p_true)
    : topo_(topo),
      host_of_sensor_(std::move(host_of_sensor)),
      p_true_(std::move(p_true)) {
  const auto& sensors = field.sensors();
  DDE_CHECK(host_of_sensor_.size() == sensors.size(),
            "Directory: host_of_sensor must map every sensor to a node");
  // Per-source arrays and the source → labels table, then the label →
  // sources table by counting: each label's count becomes its end by a
  // prefix sum, and filling backwards in sensor order moves it to its start.
  object_bytes_.reserve(sensors.size());
  validity_.reserve(sensors.size());
  source_labels_at_.reserve(sensors.size() + 1);
  source_labels_at_.push_back(0);
  std::size_t labels = 0;
  for (const auto& s : sensors) {
    object_bytes_.push_back(s.object_bytes);
    validity_.push_back(s.validity);
    for (SegmentId seg : s.covers) {
      labels = std::max<std::size_t>(labels, seg.value() + 1);
    }
    source_labels_at_.push_back(
        static_cast<std::uint32_t>(source_labels_at_.back() + s.covers.size()));
  }
  const std::uint32_t pairs = source_labels_at_.back();
  source_labels_.reserve(pairs);
  label_sources_at_.assign(labels + 1, 0);
  for (const auto& s : sensors) {
    for (SegmentId seg : s.covers) {
      source_labels_.push_back(LabelId{seg.value()});
      ++label_sources_at_[seg.value()];
    }
  }
  for (std::size_t l = 1; l < labels; ++l) {
    label_sources_at_[l] += label_sources_at_[l - 1];
  }
  label_sources_at_[labels] = pairs;
  label_sources_.resize(pairs);
  for (std::size_t i = sensors.size(); i-- > 0;) {
    for (LabelId l : labels_of(SourceId{i})) {
      label_sources_[--label_sources_at_[l.value()]] = SourceId{i};
    }
  }
  scratch_.source.resize(sensors.size());
  scratch_.label_bits.resize((labels + 63) / 64);
  scratch_.source_bits.resize((sensors.size() + 63) / 64);
}

double Directory::retrieval_cost(SourceId source, NodeId origin) const {
  const auto hops = topo_.hop_distance(origin, host(source));
  const double h = hops ? static_cast<double>(std::max<std::size_t>(*hops, 1))
                        : 1e9;  // unreachable → effectively infinite cost
  return static_cast<double>(object_bytes_[source.value()]) * h;
}

SimTime Directory::retrieval_latency(SourceId source, NodeId origin) const {
  const auto hops = topo_.hop_distance(origin, host(source));
  if (!hops) return SimTime::max();
  const auto h = static_cast<double>(std::max<std::size_t>(*hops, 1));
  // Transfer dominates: object bytes over a nominal 1 Mbps per hop, plus a
  // small per-hop request overhead.
  const double bytes = static_cast<double>(object_bytes_[source.value()]);
  return SimTime::seconds(h * (bytes * 8.0 / 1e6 + 0.005));
}

decision::LabelMeta Directory::meta(LabelId label, SourceId source,
                                    NodeId origin) const {
  decision::LabelMeta m;
  m.cost = retrieval_cost(source, origin);
  m.latency = retrieval_latency(source, origin);
  m.validity = validity(source);
  m.p_true =
      label.value() < p_true_.size() ? p_true_[label.value()] : 0.5;
  return m;
}

Directory::Selection Directory::select_sources(
    const std::vector<LabelId>& labels, NodeId origin, bool minimize,
    std::span<const SourceId> exclude) const {
  Scratch& s = scratch_;
  Selection sel;
  // The distinct coverable labels, ascending: element i of the cover is
  // needed[i].
  for (LabelId l : labels) {
    if (sources_for(l).empty()) {
      sel.uncovered.push_back(l);
    } else {
      set_bit(s.label_bits, l.value());
    }
  }
  s.needed.clear();
  drain_bits(s.label_bits, s.needed);

  // The eligible (source, element) pairs, element-major, each once even
  // where a sensor lists a segment twice, and the candidate sources with
  // their element counts. An excluded source is eligible for a label only
  // if nothing else covers it.
  auto excluded = [&](SourceId src) {
    return std::binary_search(exclude.begin(), exclude.end(), src);
  };
  s.pairs.clear();
  s.candidates.clear();
  for (std::uint32_t e = 0; e < s.needed.size(); ++e) {
    const auto srcs = sources_for(s.needed[e]);
    const bool skip_excluded =
        !exclude.empty() && !std::all_of(srcs.begin(), srcs.end(), excluded);
    for (SourceId src : srcs) {
      if (skip_excluded && excluded(src)) continue;
      Scratch::PerSource& ps = s.source[src.value()];
      if (ps.last == e) continue;
      if (ps.last == Scratch::kNone) set_bit(s.source_bits, src.value());
      ps.last = e;
      ++ps.count;
      s.pairs.emplace_back(src, e);
    }
  }
  drain_bits(s.source_bits, s.candidates);

  // Candidates as one flat cover: candidate c is candidates[c], costs
  // costs[c], and may serve the elements cover.set(c), ascending because
  // the pairs are element-major.
  const std::size_t n = s.candidates.size();
  s.costs.resize(n);
  s.offsets.resize(n + 1);
  s.offsets[0] = 0;
  for (std::size_t c = 0; c < n; ++c) {
    const SourceId src = s.candidates[c];
    Scratch::PerSource& ps = s.source[src.value()];
    s.costs[c] = retrieval_cost(src, origin);
    s.offsets[c + 1] = s.offsets[c] + ps.count;
    ps.count = s.offsets[c];  // now the fill cursor
  }
  s.elements.resize(s.pairs.size());
  for (const auto& [src, e] : s.pairs) {
    s.elements[s.source[src.value()].count++] = e;
  }
  for (SourceId src : s.candidates) s.source[src.value()] = {};
  const coverage::FlatCover cover{s.needed.size(), s.costs, s.offsets,
                                  s.elements};

  // Chosen candidates, ascending: the request-list order.
  std::span<const std::size_t> chosen;
  if (minimize) {
    // Weighted set cover over the needed labels.
    chosen = coverage::greedy_cover(cover, s.cover).chosen;
  } else {
    s.all.resize(n);
    for (std::size_t c = 0; c < n; ++c) s.all[c] = c;
    chosen = s.all;
  }
  // Designate, for each label, the cheapest chosen source eligible for it.
  // Candidates ascend by source id, and so do sources_for lists, so keeping
  // the first of equal costs picks the first in sources_for order.
  s.best.assign(s.needed.size(), Scratch::kNone);
  std::size_t requested = 0;
  for (std::size_t c : chosen) {
    for (std::uint32_t e : cover.set(c)) {
      std::uint32_t& b = s.best[e];
      if (b == Scratch::kNone || s.costs[c] < s.costs[b]) {
        b = static_cast<std::uint32_t>(c);
      }
    }
    requested += cover.set(c).size();
  }
  sel.designated.reserve(s.needed.size());
  for (std::size_t e = 0; e < s.needed.size(); ++e) {
    if (s.best[e] != Scratch::kNone) {
      sel.designated.emplace_back(s.needed[e], s.candidates[s.best[e]]);
    }
  }

  // Request list: every chosen source with the needed labels it covers.
  sel.requests.reserve(chosen.size());
  sel.request_labels.reserve(requested);
  for (std::size_t c : chosen) {
    for (std::uint32_t e : cover.set(c)) {
      sel.request_labels.push_back(s.needed[e]);
    }
    sel.requests.emplace_back(
        s.candidates[c], static_cast<std::uint32_t>(sel.request_labels.size()));
  }
  return sel;
}

}  // namespace dde::athena
