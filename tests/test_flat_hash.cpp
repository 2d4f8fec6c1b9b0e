// Flat hash map/set and arena adapters: determinism and churn coverage.
//
// The athena hot-path tranche (docs/PERFORMANCE.md) moved per-node
// protocol tables onto FlatU64Map/FlatU64Set and per-query state onto
// Pool/SmallVec/SmallMap/SmallSet. These containers carry a determinism
// contract — slot layout and iteration order are pure functions of the
// operation history — that the simulation's byte-identical trajectories
// lean on. This suite pins that contract under tombstone-heavy churn and
// capacity growth, plus the basic semantics of every adapter.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/flat_hash.h"

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
  FlatU64Map<std::uint64_t> m(8);
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
// FlatU64Set
// ---------------------------------------------------------------------------

TEST(FlatU64Set, InsertContainsErase) {
  FlatU64Set s;
  EXPECT_TRUE(s.insert(5));
  EXPECT_FALSE(s.insert(5));
  EXPECT_TRUE(s.contains(5));
  EXPECT_FALSE(s.contains(6));
  EXPECT_TRUE(s.erase(5));
  EXPECT_FALSE(s.erase(5));
  EXPECT_TRUE(s.empty());
}

TEST(FlatU64Set, TombstoneChurnStaysCorrect) {
  FlatU64Set s(8);
  constexpr std::uint64_t kWindow = 16;
  for (std::uint64_t k = 0; k < 10000; ++k) {
    ASSERT_TRUE(s.insert(k));
    if (k >= kWindow) {
      ASSERT_TRUE(s.erase(k - kWindow));
    }
  }
  EXPECT_EQ(s.size(), kWindow);
  for (std::uint64_t k = 10000 - kWindow; k < 10000; ++k) {
    EXPECT_TRUE(s.contains(k));
  }
  EXPECT_FALSE(s.contains(10000 - kWindow - 1));
}

TEST(FlatU64Set, SortedKeysAndForEachAgree) {
  FlatU64Set s;
  std::uint64_t expect_sum = 0;
  for (std::uint64_t k = 0; k < 200; ++k) {
    s.insert(k * 7919);
    expect_sum += k * 7919;
  }
  std::uint64_t sum = 0;
  s.for_each([&](std::uint64_t k) { sum += k; });
  EXPECT_EQ(sum, expect_sum);
  const auto sorted = s.sorted_keys();
  ASSERT_EQ(sorted.size(), 200u);
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_LT(sorted[i - 1], sorted[i]);
  }
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.contains(0));
}

// ---------------------------------------------------------------------------
// Pool
// ---------------------------------------------------------------------------

struct Tracked {
  static int live;
  int value = 0;
  Tracked() { ++live; }
  explicit Tracked(int v) : value(v) { ++live; }
  Tracked(const Tracked& o) : value(o.value) { ++live; }
  Tracked(Tracked&& o) noexcept : value(o.value) { ++live; }
  ~Tracked() { --live; }
  Tracked& operator=(const Tracked&) = default;
  Tracked& operator=(Tracked&&) = default;
};
int Tracked::live = 0;

TEST(Pool, CreateDestroyReusesSlotsLifo) {
  Pool<int, 4> pool;
  const auto a = pool.create(1);
  const auto b = pool.create(2);
  EXPECT_EQ(pool.at(a), 1);
  EXPECT_EQ(pool.at(b), 2);
  pool.destroy(a);
  EXPECT_FALSE(pool.is_live(a));
  const auto c = pool.create(3);
  EXPECT_EQ(c, a);  // LIFO freelist: most recently freed slot first
  EXPECT_EQ(pool.at(c), 3);
  EXPECT_EQ(pool.live(), 2u);
}

TEST(Pool, PointerStabilityAcrossGrowth) {
  Pool<int, 4> pool;
  const auto first = pool.create(123);
  int* p = &pool.at(first);
  std::vector<Pool<int, 4>::Slot> slots;
  for (int i = 0; i < 100; ++i) slots.push_back(pool.create(i));
  EXPECT_EQ(p, &pool.at(first));  // chunks never move
  EXPECT_EQ(*p, 123);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(pool.at(slots[i]), static_cast<int>(i));
  }
  EXPECT_GE(pool.capacity(), 101u);
}

TEST(Pool, DestructorsRunEagerlyAndOnClear) {
  Tracked::live = 0;
  {
    Pool<Tracked, 8> pool;
    const auto a = pool.create(1);
    const auto b = pool.create(2);
    (void)b;
    EXPECT_EQ(Tracked::live, 2);
    pool.destroy(a);
    EXPECT_EQ(Tracked::live, 1);
    pool.clear();
    EXPECT_EQ(Tracked::live, 0);
    const auto c = pool.create(3);
    EXPECT_EQ(pool.at(c).value, 3);
    EXPECT_EQ(Tracked::live, 1);
  }
  EXPECT_EQ(Tracked::live, 0);  // pool destructor cleans up live objects
}

// ---------------------------------------------------------------------------
// SmallVec / SmallMap / SmallSet
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

TEST(SmallVec, RemoveIfAndEraseAtPreserveOrder) {
  SmallVec<int, 4> v;
  for (int i = 0; i < 8; ++i) v.push_back(i);
  EXPECT_EQ(v.remove_if([](int x) { return x % 2 == 0; }), 4u);
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[3], 7);
  v.erase_at(1);  // removes 3
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[1], 5);
  EXPECT_EQ(v[2], 7);
  v.clear();
  EXPECT_TRUE(v.empty());
  v.push_back(42);  // usable after clear, back in inline mode
  EXPECT_EQ(v[0], 42);
}

TEST(SmallMap, RefSetFindErase) {
  SmallMap<int, int, 2> m;
  m.ref(1) = 10;
  m.set(2, 20);
  m.set(2, 21);  // overwrite, not duplicate
  EXPECT_EQ(m.size(), 2u);
  ASSERT_NE(m.find(2), nullptr);
  EXPECT_EQ(*m.find(2), 21);
  EXPECT_TRUE(m.contains(1));
  EXPECT_FALSE(m.contains(3));
  m.ref(3) = 30;  // spills past inline capacity
  EXPECT_EQ(m.size(), 3u);
  EXPECT_TRUE(m.erase(2));
  EXPECT_FALSE(m.erase(2));
  // Iteration is insertion order with erased entries closed up.
  std::vector<int> keys;
  for (const auto& item : m) keys.push_back(item.key);
  EXPECT_EQ(keys, (std::vector<int>{1, 3}));
}

TEST(SmallSet, InsertDedupAndOrder) {
  SmallSet<int, 2> s;
  EXPECT_TRUE(s.insert(3));
  EXPECT_TRUE(s.insert(1));
  EXPECT_FALSE(s.insert(3));
  EXPECT_TRUE(s.insert(2));  // spills
  EXPECT_EQ(s.size(), 3u);
  std::vector<int> order(s.begin(), s.end());
  EXPECT_EQ(order, (std::vector<int>{3, 1, 2}));  // insertion order
  EXPECT_TRUE(s.erase(1));
  EXPECT_FALSE(s.contains(1));
  order.assign(s.begin(), s.end());
  EXPECT_EQ(order, (std::vector<int>{3, 2}));
}

}  // namespace
}  // namespace dde
