// Flat hash map and arena adapters: determinism and churn coverage.
//
// The athena hot-path tranche (docs/PERFORMANCE.md) moved per-node
// protocol tables onto FlatU64Map and small in-flight lists (a query's
// per-source records, a label's evidence) onto SmallVec. Both carry a
// determinism contract — slot layout and iteration order are pure
// functions of the operation history — that the simulation's
// byte-identical trajectories lean on. This suite pins that contract under
// tombstone-heavy churn and capacity growth, plus the basic semantics of
// each container.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/flat_hash.h"
#include "common/ids.h"

namespace dde {
namespace {

// ---------------------------------------------------------------------------
// FlatU64Map
// ---------------------------------------------------------------------------

TEST(FlatU64Map, InsertFindErase) {
  FlatU64Map<int> m;
  EXPECT_TRUE(m.empty());
  m.insert(7, 70);
  m.insert(8, 80);
  ASSERT_NE(m.find(7), nullptr);
  EXPECT_EQ(*m.find(7), 70);
  EXPECT_EQ(m.find(9), nullptr);
  EXPECT_TRUE(m.erase(7));
  EXPECT_FALSE(m.erase(7));
  EXPECT_EQ(m.find(7), nullptr);
  EXPECT_EQ(m.size(), 1u);
}

// A default-constructed map holds no slots until its first insert, and
// every operation works on it before then.
TEST(FlatU64Map, DefaultMapAllocatesOnFirstInsert) {
  FlatU64Map<int> m;
  EXPECT_EQ(m.capacity(), 0u);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(7), nullptr);
  EXPECT_EQ(std::as_const(m).find(7), nullptr);
  EXPECT_FALSE(m.erase(7));
  std::size_t visited = 0;
  m.for_each([&](std::uint64_t, int) { ++visited; });
  EXPECT_EQ(visited, 0u);
  EXPECT_EQ(m.erase_if([](std::uint64_t, int) { return true; }), 0u);
  EXPECT_TRUE(m.sorted_keys().empty());
  m.clear();
  EXPECT_EQ(m.capacity(), 0u);

  m.insert(7, 1);
  EXPECT_GT(m.capacity(), 0u);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(*m.find(7), 1);
}

TEST(FlatU64Map, InsertIfAbsentAndFindOrInsert) {
  FlatU64Map<int> m;
  EXPECT_TRUE(m.insert_if_absent(1, 10));
  EXPECT_FALSE(m.insert_if_absent(1, 99));
  EXPECT_EQ(*m.find(1), 10);
  m.find_or_insert(2) = 20;
  EXPECT_EQ(*m.find(2), 20);
  m.find_or_insert(2) += 5;
  EXPECT_EQ(*m.find(2), 25);
  EXPECT_EQ(m.size(), 2u);
}

TEST(FlatU64Map, ClearKeepsWorking) {
  FlatU64Map<int> m;
  for (std::uint64_t k = 0; k < 100; ++k) m.insert(k, static_cast<int>(k));
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(42), nullptr);
  m.insert(42, 1);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(*m.find(42), 1);
}

// Tombstone-heavy churn: a bounded working set cycled far past the table
// capacity must stay correct and must not grow the table without bound
// (rebuilds reclaim tombstones in place).
TEST(FlatU64Map, TombstoneChurnStaysCorrect) {
  FlatU64Map<std::uint64_t> m;
  constexpr std::uint64_t kWindow = 32;
  for (std::uint64_t k = 0; k < 20000; ++k) {
    m.insert(k, k * 3);
    if (k >= kWindow) {
      ASSERT_TRUE(m.erase(k - kWindow));
    }
  }
  EXPECT_EQ(m.size(), kWindow);
  for (std::uint64_t k = 20000 - kWindow; k < 20000; ++k) {
    ASSERT_NE(m.find(k), nullptr);
    EXPECT_EQ(*m.find(k), k * 3);
  }
  EXPECT_EQ(m.find(20000 - kWindow - 1), nullptr);
  EXPECT_LE(m.capacity(), 4 * 2 * kWindow);
}

// Same operation history => same slot layout, observed through for_each
// visit order. Two independently grown tables must agree element-for-
// element, and sorted_keys() must be ascending regardless of layout.
TEST(FlatU64Map, GrowthDeterminism) {
  auto build = [] {
    FlatU64Map<std::uint64_t> m;
    for (std::uint64_t k = 0; k < 3000; ++k) m.insert(k * 2654435761u, k);
    for (std::uint64_t k = 0; k < 3000; k += 3) m.erase(k * 2654435761u);
    return m;
  };
  const auto a = build();
  const auto b = build();
  std::vector<std::uint64_t> order_a;
  std::vector<std::uint64_t> order_b;
  a.for_each([&](std::uint64_t k, const std::uint64_t&) { order_a.push_back(k); });
  b.for_each([&](std::uint64_t k, const std::uint64_t&) { order_b.push_back(k); });
  EXPECT_EQ(order_a, order_b);

  const auto sorted = a.sorted_keys();
  ASSERT_EQ(sorted.size(), a.size());
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_LT(sorted[i - 1], sorted[i]);
  }
}

TEST(FlatU64Map, EraseIfSlotOrder) {
  FlatU64Map<int> m;
  for (std::uint64_t k = 0; k < 50; ++k) m.insert(k, static_cast<int>(k));
  const std::size_t erased =
      m.erase_if([](std::uint64_t, int v) { return v % 2 == 0; });
  EXPECT_EQ(erased, 25u);
  EXPECT_EQ(m.size(), 25u);
  m.for_each([](std::uint64_t, int v) { EXPECT_EQ(v % 2, 1); });
  // Tombstones left by erase_if must not break lookups or reinsertion.
  for (std::uint64_t k = 0; k < 50; k += 2) {
    EXPECT_EQ(m.find(k), nullptr);
    m.insert(k, static_cast<int>(k));
  }
  EXPECT_EQ(m.size(), 50u);
}

TEST(FlatU64Map, NonTrivialValueType) {
  FlatU64Map<std::string> m;
  m.insert(1, "one");
  m.find_or_insert(2) = "two";
  EXPECT_EQ(*m.find(1), "one");
  m.erase(1);
  EXPECT_EQ(m.find(1), nullptr);
  EXPECT_EQ(*m.find(2), "two");
}

// ---------------------------------------------------------------------------
// kPageSlots: TtlCache's chunk size
// ---------------------------------------------------------------------------

static_assert(kPageSlots<unsigned char[664]> == 4096 / 664);
static_assert(kPageSlots<unsigned char[8192]> == 1);

// ---------------------------------------------------------------------------
// SmallVec
// ---------------------------------------------------------------------------

TEST(SmallVec, SpillPreservesContentsAndOrder) {
  SmallVec<int, 2> v;
  for (int i = 0; i < 10; ++i) v.push_back(i);
  ASSERT_EQ(v.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
  int expect = 0;
  for (const int x : v) EXPECT_EQ(x, expect++);  // contiguous after spill
  EXPECT_EQ(v.back(), 9);
  v.pop_back();
  EXPECT_EQ(v.back(), 8);
}

TEST(SmallVec, RemoveIfPreservesOrder) {
  SmallVec<int, 4> v;
  for (int i = 0; i < 8; ++i) v.push_back(i);
  EXPECT_EQ(v.remove_if([](int x) { return x % 2 == 0; }), 4u);
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[3], 7);
  v.clear();
  EXPECT_TRUE(v.empty());
  v.push_back(42);  // usable after clear, back in inline mode
  EXPECT_EQ(v[0], 42);
}

TEST(SmallVec, SpillBookkeepingIsOnePointerAndTwoWords) {
  // Pinned so the per-entry footprint cannot grow back unnoticed: every
  // label-cache slot holds a SmallVec<ObjectId, 1> and every interest-table
  // slot a SmallVec<Interest, 1>.
  static_assert(sizeof(SmallVec<ObjectId, 1>) <= 24);
  static_assert(sizeof(SmallVec<std::uint64_t, 4>) <= 4 * 8 + 16);
  SUCCEED();
}

TEST(SmallVec, CopyOfSpilledVectorIsDeep) {
  SmallVec<std::string, 1> v;
  for (int i = 0; i < 5; ++i) v.push_back(std::to_string(i));
  ASSERT_TRUE(v.spilled());
  SmallVec<std::string, 1> copy = v;
  ASSERT_EQ(copy.size(), 5u);
  EXPECT_NE(copy.data(), v.data());  // its own heap array
  copy[0] = "changed";
  copy.push_back("5");
  copy.push_back("6");  // grows past the copied capacity
  EXPECT_EQ(v[0], "0");
  EXPECT_EQ(v.size(), 5u);
  for (int i = 1; i < 7; ++i) {
    EXPECT_EQ(copy[static_cast<std::size_t>(i)], std::to_string(i));
  }
  SmallVec<std::string, 1> assigned;
  assigned.push_back("x");
  assigned = v;
  ASSERT_EQ(assigned.size(), 5u);
  EXPECT_NE(assigned.data(), v.data());
  EXPECT_EQ(assigned[4], "4");

  // A spilled vector popped down to nothing still copies into a usable
  // vector.
  SmallVec<int, 1> drained;
  drained.push_back(1);
  drained.push_back(2);
  drained.pop_back();
  drained.pop_back();
  SmallVec<int, 1> from_drained = drained;
  for (int i = 0; i < 4; ++i) from_drained.push_back(i);
  EXPECT_EQ(from_drained.size(), 4u);
  EXPECT_EQ(from_drained[3], 3);
}

TEST(SmallVec, MovedFromVectorIsEmptyAndReusable) {
  for (const int n : {1, 4}) {  // inline, then spilled
    SmallVec<std::string, 2> src;
    for (int i = 0; i < n; ++i) src.push_back(std::to_string(i));
    const std::string* heap = src.spilled() ? src.data() : nullptr;
    SmallVec<std::string, 2> dst = std::move(src);
    ASSERT_EQ(dst.size(), static_cast<std::size_t>(n));
    EXPECT_EQ(dst[static_cast<std::size_t>(n - 1)], std::to_string(n - 1));
    if (heap != nullptr) {
      EXPECT_EQ(dst.data(), heap);  // stolen, not copied
    }
    EXPECT_TRUE(src.empty());  // NOLINT(bugprone-use-after-move)
    EXPECT_FALSE(src.spilled());
    src.push_back("again");
    src.push_back("and");
    src.push_back("again");
    ASSERT_EQ(src.size(), 3u);
    EXPECT_EQ(src[1], "and");

    SmallVec<std::string, 2> target;
    for (int i = 0; i < 3; ++i) target.push_back("old");
    target = std::move(dst);
    ASSERT_EQ(target.size(), static_cast<std::size_t>(n));
    EXPECT_EQ(target[0], "0");
    EXPECT_TRUE(dst.empty());  // NOLINT(bugprone-use-after-move)
    dst.push_back("reused");
    EXPECT_EQ(dst.back(), "reused");
  }
}

TEST(SmallVec, ClearAfterSpillReturnsToInlineStorage) {
  SmallVec<int, 2> v;
  const int* inline_data = v.data();
  for (int i = 0; i < 6; ++i) v.push_back(i);
  ASSERT_TRUE(v.spilled());
  EXPECT_NE(v.data(), inline_data);
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_FALSE(v.spilled());
  EXPECT_EQ(v.data(), inline_data);
  v.push_back(7);
  v.push_back(8);
  EXPECT_FALSE(v.spilled());
  EXPECT_EQ(v.data(), inline_data);
  v.push_back(9);  // spills afresh
  EXPECT_TRUE(v.spilled());
  EXPECT_EQ(v[0], 7);
  EXPECT_EQ(v[2], 9);
}

}  // namespace
}  // namespace dde
