#include "athena/directory.h"

#include <gtest/gtest.h>

#include <vector>

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
    s0.name = naming::Name::parse("/t/cam0");
    s0.covers = {SegmentId{0}, SegmentId{1}};
    s0.object_bytes = 1000;
    s0.validity = SimTime::seconds(100);
    SensorInfo s1;
    s1.id = SourceId{1};
    s1.name = naming::Name::parse("/t/cam1");
    s1.covers = {SegmentId{1}, SegmentId{2}};
    s1.object_bytes = 500;
    s1.validity = SimTime::seconds(50);
    SensorInfo s2;
    s2.id = SourceId{2};
    s2.name = naming::Name::parse("/t/cam2");
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
                     {{LabelId{0}, 0.8}, {LabelId{1}, 0.8}, {LabelId{2}, 0.8},
                      {LabelId{3}, 0.8}});
  }
};

TEST(Directory, SourcesForLabel) {
  Fixture f;
  const auto dir = f.make_directory();
  EXPECT_EQ(dir.sources_for(LabelId{0}), std::vector<SourceId>{SourceId{0}});
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
  // So does a label below the largest known one that has no estimate.
  const Directory sparse(f.topo, f.field, {f.nodes[1], f.nodes[3], f.nodes[3]},
                         {{LabelId{3}, 0.8}});
  EXPECT_DOUBLE_EQ(sparse.meta(LabelId{1}, SourceId{1}, f.nodes[0]).p_true,
                   0.5);
  EXPECT_DOUBLE_EQ(sparse.meta(LabelId{3}, SourceId{1}, f.nodes[0]).p_true,
                   0.8);
}

TEST(Directory, SelectMinimizedCoversAllLabels) {
  Fixture f;
  const auto dir = f.make_directory();
  const std::vector<LabelId> labels{LabelId{0}, LabelId{1}, LabelId{2}};
  const auto sel = dir.select_sources(labels, f.nodes[0], /*minimize=*/true);
  EXPECT_TRUE(sel.uncovered.empty());
  for (LabelId l : labels) {
    ASSERT_TRUE(sel.designated.contains(l)) << l;
  }
  // Every designated source actually covers its label.
  // lint: ordered-fold — independent per-entry expectations.
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
  EXPECT_EQ(sel.designated.at(LabelId{1}), SourceId{0});
}

TEST(Directory, SelectReportsUncoveredLabels) {
  Fixture f;
  const auto dir = f.make_directory();
  const auto sel = dir.select_sources({LabelId{0}, LabelId{42}}, f.nodes[0],
                                      true);
  ASSERT_EQ(sel.uncovered.size(), 1u);
  EXPECT_EQ(sel.uncovered[0], LabelId{42});
  EXPECT_TRUE(sel.designated.contains(LabelId{0}));
  EXPECT_FALSE(sel.designated.contains(LabelId{42}));
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
  for (const auto& [source, labels] : sel.requests) {
    EXPECT_EQ(labels, std::vector<LabelId>{LabelId{1}})
        << "only the needed label is requested even if the source covers more";
  }
}

}  // namespace
}  // namespace dde::athena
