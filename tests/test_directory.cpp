#include "athena/directory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"

namespace dde::athena {
namespace {

using world::SensorInfo;

/// Fixture: a 4-node line network; sensors with hand-picked coverage.
/// Sensor 0 at node 1 covers segments {0, 1}; sensor 1 at node 3 covers
/// {1, 2}; sensor 2 at node 3 covers {3}.
struct Fixture {
  world::GridMap map{4, 4};
  world::ViabilityProcess truth;
  world::SensorField field;
  net::Topology topo;
  std::vector<NodeId> nodes;

  static std::vector<SensorInfo> sensors() {
    SensorInfo s0;
    s0.id = SourceId{0};
    s0.covers = {SegmentId{0}, SegmentId{1}};
    s0.object_bytes = 1000;
    s0.validity = SimTime::seconds(100);
    SensorInfo s1;
    s1.id = SourceId{1};
    s1.covers = {SegmentId{1}, SegmentId{2}};
    s1.object_bytes = 500;
    s1.validity = SimTime::seconds(50);
    SensorInfo s2;
    s2.id = SourceId{2};
    s2.covers = {SegmentId{3}};
    s2.object_bytes = 2000;
    s2.validity = SimTime::seconds(10);
    return {s0, s1, s2};
  }

  Fixture()
      : truth(std::vector<world::SegmentDynamics>(
                  map.segment_count(),
                  world::SegmentDynamics{0.8, SimTime::seconds(600)}),
              Rng(1)),
        field(map, truth, sensors()) {
    for (int i = 0; i < 4; ++i) nodes.push_back(topo.add_node());
    for (int i = 0; i + 1 < 4; ++i) topo.add_link(nodes[i], nodes[i + 1]);
    topo.compute_routes();
  }

  Directory make_directory() {
    return Directory(topo, field,
                     {nodes[1], nodes[3], nodes[3]},
                     {0.8, 0.8, 0.8, 0.8});
  }
};

TEST(Directory, SourcesForLabel) {
  Fixture f;
  const auto dir = f.make_directory();
  const auto one = dir.sources_for(LabelId{0});
  EXPECT_EQ(std::vector<SourceId>(one.begin(), one.end()),
            std::vector<SourceId>{SourceId{0}});
  const auto both = dir.sources_for(LabelId{1});
  EXPECT_EQ(both.size(), 2u);
  EXPECT_TRUE(dir.sources_for(LabelId{99}).empty());
}

TEST(Directory, HostMapping) {
  Fixture f;
  const auto dir = f.make_directory();
  EXPECT_EQ(dir.host(SourceId{0}), f.nodes[1]);
  EXPECT_EQ(dir.host(SourceId{1}), f.nodes[3]);
  EXPECT_THROW((void)dir.host(SourceId{9}), std::out_of_range);
}

TEST(Directory, LabelsOfSource) {
  Fixture f;
  const auto dir = f.make_directory();
  const auto labels = dir.labels_of(SourceId{0});
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels[0], LabelId{0});
  EXPECT_EQ(labels[1], LabelId{1});
  EXPECT_THROW((void)dir.labels_of(SourceId{9}), std::out_of_range);
  EXPECT_EQ(dir.validity(SourceId{2}), SimTime::seconds(10));
}

TEST(Directory, RetrievalCostScalesWithBytesAndHops) {
  Fixture f;
  const auto dir = f.make_directory();
  // From node 0: sensor 0 is 1 hop (1000 B), sensor 1 is 3 hops (500 B).
  EXPECT_DOUBLE_EQ(dir.retrieval_cost(SourceId{0}, f.nodes[0]), 1000.0);
  EXPECT_DOUBLE_EQ(dir.retrieval_cost(SourceId{1}, f.nodes[0]), 1500.0);
  // From its own host the cost is bytes × 1 (local floor).
  EXPECT_DOUBLE_EQ(dir.retrieval_cost(SourceId{0}, f.nodes[1]), 1000.0);
}

TEST(Directory, MetaReflectsSourceAndLabel) {
  Fixture f;
  const auto dir = f.make_directory();
  const auto m = dir.meta(LabelId{1}, SourceId{1}, f.nodes[0]);
  EXPECT_DOUBLE_EQ(m.cost, 1500.0);
  EXPECT_EQ(m.validity, SimTime::seconds(50));
  EXPECT_DOUBLE_EQ(m.p_true, 0.8);
  EXPECT_GT(m.latency, SimTime::zero());
  // Unknown label defaults p to 0.5.
  const auto m2 = dir.meta(LabelId{77}, SourceId{1}, f.nodes[0]);
  EXPECT_DOUBLE_EQ(m2.p_true, 0.5);
  // So does a covered label past the end of a shorter prior vector.
  const Directory short_priors(f.topo, f.field,
                               {f.nodes[1], f.nodes[3], f.nodes[3]}, {0.8, 0.8});
  EXPECT_DOUBLE_EQ(
      short_priors.meta(LabelId{1}, SourceId{1}, f.nodes[0]).p_true, 0.8);
  EXPECT_DOUBLE_EQ(
      short_priors.meta(LabelId{3}, SourceId{1}, f.nodes[0]).p_true, 0.5);
}

TEST(Directory, SelectMinimizedCoversAllLabels) {
  Fixture f;
  const auto dir = f.make_directory();
  const std::vector<LabelId> labels{LabelId{0}, LabelId{1}, LabelId{2}};
  const auto sel = dir.select_sources(labels, f.nodes[0], /*minimize=*/true);
  EXPECT_TRUE(sel.uncovered.empty());
  for (LabelId l : labels) {
    ASSERT_TRUE(sel.designated_source(l).valid()) << l;
  }
  EXPECT_EQ(sel.designated.size(), labels.size());
  EXPECT_TRUE(std::is_sorted(sel.designated.begin(), sel.designated.end()));
  // Every designated source actually covers its label.
  for (const auto& [label, source] : sel.designated) {
    const auto& srcs = dir.sources_for(label);
    EXPECT_NE(std::find(srcs.begin(), srcs.end(), source), srcs.end());
  }
}

TEST(Directory, SelectMinimizedPicksCoverNotEverything) {
  Fixture f;
  const auto dir = f.make_directory();
  // Labels {0,1,2}: sensors 0 and 1 suffice; a minimized selection from
  // node 0 must not include sensor 2.
  const auto sel = dir.select_sources({LabelId{0}, LabelId{1}, LabelId{2}},
                                      f.nodes[0], true);
  EXPECT_EQ(sel.requests.size(), 2u);
}

TEST(Directory, SelectComprehensiveListsAllCoveringSources) {
  Fixture f;
  const auto dir = f.make_directory();
  const auto sel =
      dir.select_sources({LabelId{1}}, f.nodes[0], /*minimize=*/false);
  // Both sensors covering label 1 are in the request list.
  EXPECT_EQ(sel.requests.size(), 2u);
  // The designated source is the cheaper one from node 0 (sensor 0:
  // 1000×1 hop = 1000 vs sensor 1: 500×3 = 1500).
  EXPECT_EQ(sel.designated_source(LabelId{1}), SourceId{0});
}

TEST(Directory, SelectReportsUncoveredLabels) {
  Fixture f;
  const auto dir = f.make_directory();
  const auto sel = dir.select_sources({LabelId{0}, LabelId{42}}, f.nodes[0],
                                      true);
  ASSERT_EQ(sel.uncovered.size(), 1u);
  EXPECT_EQ(sel.uncovered[0], LabelId{42});
  EXPECT_TRUE(sel.designated_source(LabelId{0}).valid());
  EXPECT_FALSE(sel.designated_source(LabelId{42}).valid());
}

TEST(Directory, SelectEmptyLabels) {
  Fixture f;
  const auto dir = f.make_directory();
  const auto sel = dir.select_sources({}, f.nodes[0], true);
  EXPECT_TRUE(sel.designated.empty());
  EXPECT_TRUE(sel.requests.empty());
  EXPECT_TRUE(sel.uncovered.empty());
}

TEST(Directory, RequestsContainOnlyNeededLabels) {
  Fixture f;
  const auto dir = f.make_directory();
  const auto sel = dir.select_sources({LabelId{1}}, f.nodes[0], false);
  for (std::size_t i = 0; i < sel.requests.size(); ++i) {
    const auto labels = sel.requested(i);
    EXPECT_EQ(std::vector<LabelId>(labels.begin(), labels.end()),
              std::vector<LabelId>{LabelId{1}})
        << "only the needed label is requested even if the source covers more";
  }
}

/// A selection with its request list nested: (source, its labels) pairs.
struct NestedSelection {
  std::vector<std::pair<LabelId, SourceId>> designated;
  std::vector<std::pair<SourceId, std::vector<LabelId>>> requests;
  std::vector<LabelId> uncovered;
};

NestedSelection nested(const Directory::Selection& sel) {
  NestedSelection out{sel.designated, {}, sel.uncovered};
  for (std::size_t i = 0; i < sel.requests.size(); ++i) {
    const auto labels = sel.requested(i);
    out.requests.emplace_back(sel.requests[i].first,
                              std::vector<LabelId>(labels.begin(), labels.end()));
  }
  return out;
}

/// Source selection as it stood before the labels → sources inversion:
/// `covered_needed` rescans every needed label for each candidate.
NestedSelection reference_select(
    const Directory& dir, const std::vector<LabelId>& labels, NodeId origin,
    bool minimize, const std::unordered_set<SourceId>* exclude) {
  NestedSelection sel;
  auto available = [&](LabelId l) {
    const auto listed = dir.sources_for(l);
    std::vector<SourceId> srcs(listed.begin(), listed.end());
    if (exclude == nullptr || exclude->empty()) return srcs;
    std::vector<SourceId> filtered;
    for (SourceId s : srcs) {
      if (!exclude->contains(s)) filtered.push_back(s);
    }
    return filtered.empty() ? srcs : filtered;
  };
  std::vector<SourceId> candidates;
  for (LabelId l : labels) {
    const auto srcs = available(l);
    if (srcs.empty()) sel.uncovered.push_back(l);
    candidates.insert(candidates.end(), srcs.begin(), srcs.end());
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  auto covered_needed = [&](SourceId s) {
    std::vector<LabelId> out;
    for (LabelId l : labels) {
      const auto srcs = available(l);
      if (std::find(srcs.begin(), srcs.end(), s) != srcs.end()) {
        out.push_back(l);
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  };
  std::vector<SourceId> chosen;
  if (minimize) {
    coverage::CoverInstance inst;
    for (LabelId l : labels) {
      if (!dir.sources_for(l).empty()) {
        inst.universe.push_back(static_cast<std::uint32_t>(l.value()));
      }
    }
    std::sort(inst.universe.begin(), inst.universe.end());
    inst.universe.erase(
        std::unique(inst.universe.begin(), inst.universe.end()),
        inst.universe.end());
    for (SourceId s : candidates) {
      coverage::CoverSet set;
      set.cost = dir.retrieval_cost(s, origin);
      for (LabelId l : covered_needed(s)) {
        set.elements.push_back(static_cast<std::uint32_t>(l.value()));
      }
      inst.sets.push_back(std::move(set));
    }
    for (std::size_t idx : coverage::greedy_cover(inst).chosen) {
      chosen.push_back(candidates[idx]);
    }
  } else {
    chosen = candidates;
  }
  std::map<LabelId, SourceId> designated;
  for (LabelId l : labels) {
    SourceId best;
    double best_cost = 0.0;
    for (SourceId s : available(l)) {
      if (std::find(chosen.begin(), chosen.end(), s) == chosen.end()) continue;
      const double c = dir.retrieval_cost(s, origin);
      if (!best.valid() || c < best_cost) {
        best = s;
        best_cost = c;
      }
    }
    if (best.valid()) designated[l] = best;
  }
  sel.designated.assign(designated.begin(), designated.end());
  for (SourceId s : chosen) {
    auto labs = covered_needed(s);
    if (!labs.empty()) sel.requests.emplace_back(s, std::move(labs));
  }
  return sel;
}

// Random sensor fields on a random 6-node topology (one node isolated, so
// some sources are unreachable), with object sizes drawn from a small set
// so cost ties are common. Some sensors list a segment twice. Labels
// repeat, some are uncovered, and exclude sets range over none, empty,
// some, every source of one queried label, and all sources.
TEST(Directory, SelectSourcesMatchesBruteForce) {
  Rng rng(1717);
  const world::GridMap map{4, 4};
  const std::size_t segments = map.segment_count();
  const std::uint32_t sizes[] = {500, 1000, 2000};
  int doubled = 0;       // trials where a needed label lists a source twice
  int label_barred = 0;  // trials excluding every source of a needed label
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    net::Topology topo;
    std::vector<NodeId> nodes;
    for (int i = 0; i < 6; ++i) nodes.push_back(topo.add_node());
    for (int i = 0; i < 4; ++i) topo.add_link(nodes[i], nodes[i + 1]);
    topo.add_link(nodes[0], nodes[2 + rng.below(3)]);  // chord; 5 isolated
    topo.compute_routes();

    const std::size_t n_sensors = 1 + rng.below(8);
    std::vector<SensorInfo> sensors;
    std::vector<NodeId> hosts;
    for (std::size_t i = 0; i < n_sensors; ++i) {
      SensorInfo si;
      si.id = SourceId{i};
      for (std::size_t k = 0, n = 1 + rng.below(4); k < n; ++k) {
        const SegmentId seg{rng.below(8)};
        if (std::find(si.covers.begin(), si.covers.end(), seg) ==
                si.covers.end() ||
            rng.chance(0.3)) {
          si.covers.push_back(seg);
        }
      }
      si.object_bytes = sizes[rng.below(3)];
      sensors.push_back(std::move(si));
      hosts.push_back(nodes[rng.below(6)]);
    }
    world::ViabilityProcess truth(
        std::vector<world::SegmentDynamics>(
            segments, world::SegmentDynamics{0.8, SimTime::seconds(600)}),
        Rng(1));
    const world::SensorField field(map, truth, sensors);
    const Directory dir(topo, field, hosts, {});

    std::vector<LabelId> labels;
    for (std::size_t k = 0, n = rng.below(7); k < n; ++k) {
      labels.push_back(LabelId{rng.below(10)});  // 8, 9: never covered
    }
    // The same exclusions twice: ascending for select_sources, hashed for
    // the reference.
    std::unordered_set<SourceId> exclude_set;
    const std::uint64_t mode = rng.below(5);
    for (std::size_t i = 0; i < n_sensors; ++i) {
      if (mode == 4 || (mode >= 2 && rng.chance(0.4))) {
        exclude_set.insert(SourceId{i});
      }
    }
    if (mode == 3 && !labels.empty()) {
      for (SourceId src : dir.sources_for(labels[rng.below(labels.size())])) {
        exclude_set.insert(src);
      }
    }
    std::vector<SourceId> exclude(exclude_set.begin(), exclude_set.end());
    std::sort(exclude.begin(), exclude.end());
    for (LabelId l : labels) {
      const auto srcs = dir.sources_for(l);
      std::vector<SourceId> sorted(srcs.begin(), srcs.end());
      std::sort(sorted.begin(), sorted.end());
      if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
        ++doubled;
        break;
      }
    }
    for (LabelId l : labels) {
      const auto srcs = dir.sources_for(l);
      if (mode != 0 && !srcs.empty() &&
          std::all_of(srcs.begin(), srcs.end(), [&](SourceId src) {
            return exclude_set.contains(src);
          })) {
        ++label_barred;
        break;
      }
    }

    const NodeId origin = nodes[rng.below(6)];
    for (const bool minimize : {true, false}) {
      const auto* ex = mode == 0 ? nullptr : &exclude_set;
      const auto got = dir.select_sources(labels, origin, minimize, exclude);
      const auto want = reference_select(dir, labels, origin, minimize, ex);
      EXPECT_EQ(nested(got).requests, want.requests) << "minimize " << minimize;
      EXPECT_EQ(got.designated, want.designated) << "minimize " << minimize;
      EXPECT_EQ(got.uncovered, want.uncovered) << "minimize " << minimize;
      if (!minimize) {
        // Every covering source is requested, in the flat form too: the
        // request ends partition request_labels.
        std::vector<LabelId> flat;
        for (const auto& [source, labs] : want.requests) {
          flat.insert(flat.end(), labs.begin(), labs.end());
        }
        EXPECT_EQ(got.request_labels, flat);
        ASSERT_EQ(got.requests.size(), want.requests.size());
        if (!got.requests.empty()) {
          EXPECT_EQ(got.requests.back().second, flat.size());
        }
      }
    }
  }
  EXPECT_GT(doubled, 20);
  EXPECT_GT(label_barred, 20);
}

}  // namespace
}  // namespace dde::athena
