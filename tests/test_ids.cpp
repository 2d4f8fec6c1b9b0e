#include "common/ids.h"

#include <gtest/gtest.h>

#include <sstream>
#include <unordered_set>

namespace dde {
namespace {

TEST(StrongId, DefaultConstructedIsInvalid) {
  NodeId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id.value(), NodeId::kInvalid);
}

TEST(StrongId, ExplicitValueIsValid) {
  NodeId id{7};
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 7u);
}

TEST(StrongId, EqualityAndOrdering) {
  NodeId a{1};
  NodeId b{2};
  NodeId c{1};
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
  EXPECT_GT(b, c);
  EXPECT_LE(a, c);
  EXPECT_GE(a, c);
}

TEST(StrongId, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<NodeId, QueryId>);
  static_assert(!std::is_same_v<ObjectId, LabelId>);
  static_assert(!std::is_convertible_v<NodeId, QueryId>);
  SUCCEED();
}

TEST(StrongId, HashWorksInUnorderedSet) {
  std::unordered_set<NodeId> set;
  set.insert(NodeId{1});
  set.insert(NodeId{2});
  set.insert(NodeId{1});
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains(NodeId{1}));
  EXPECT_FALSE(set.contains(NodeId{3}));
}

TEST(StrongId, StreamOutput) {
  std::ostringstream oss;
  oss << NodeId{42};
  EXPECT_EQ(oss.str(), "42");
  std::ostringstream oss2;
  oss2 << NodeId{};
  EXPECT_EQ(oss2.str(), "<invalid>");
}

TEST(PackNodeCounter, NodeInHighBitsCounterInLowBits) {
  EXPECT_EQ(pack_node_counter(NodeId{0}, 0), 0u);
  EXPECT_EQ(pack_node_counter(NodeId{3}, 1), (3ULL << 32) | 1);
  EXPECT_EQ(pack_node_counter(NodeId{3}, 1) >> 32, 3u);
  // Within a node, ids ascend with the counter (issue order); the largest
  // counter of node n still sorts below node n+1's first id.
  EXPECT_LT(pack_node_counter(NodeId{3}, 1), pack_node_counter(NodeId{3}, 2));
  EXPECT_LT(pack_node_counter(NodeId{3}, 0xFFFF'FFFFULL),
            pack_node_counter(NodeId{4}, 0));
}

TEST(PackNodeCounterDeathTest, OverflowOfEitherFieldAborts) {
  EXPECT_DEATH((void)pack_node_counter(NodeId{1}, 1ULL << 32),
               "pack_node_counter");
  EXPECT_DEATH((void)pack_node_counter(NodeId{1ULL << 32}, 0),
               "pack_node_counter");
  EXPECT_DEATH((void)pack_node_counter(NodeId{}, 0), "pack_node_counter");
}

TEST(StrongId, InvalidComparesConsistently) {
  NodeId invalid;
  NodeId valid{0};
  EXPECT_NE(invalid, valid);
  // kInvalid is the max value, so any valid id sorts before it.
  EXPECT_LT(valid, invalid);
}

}  // namespace
}  // namespace dde
