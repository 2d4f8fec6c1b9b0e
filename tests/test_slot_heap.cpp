// SlotHeap: the (key, seq) order both the event queue and the link queues
// rely on, remove-max eviction, compaction through erase_if, and LIFO slot
// reuse. Each case checks the heap against a sorted model of its entries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/slot_heap.h"

namespace dde {
namespace {

struct Item {
  std::int64_t key;
  std::uint64_t seq;
  bool operator<(const Item& o) const {
    return std::tie(key, seq) < std::tie(o.key, o.seq);
  }
  bool operator==(const Item&) const = default;
};

/// Pop everything, returning the (key, seq) sequence and checking that
/// each popped value is the one pushed under that entry.
std::vector<Item> drain(SlotHeap<Item>& heap) {
  std::vector<Item> out;
  while (!heap.empty()) {
    const auto& top = heap.top();
    const Item expected{top.key, top.seq};
    const Item value = heap.pop();
    EXPECT_EQ(value, expected);
    out.push_back(value);
  }
  return out;
}

TEST(SlotHeap, PopsInKeyThenSeqOrderWithTies) {
  SlotHeap<Item> heap;
  Rng rng(5);
  std::vector<Item> model;
  for (std::uint64_t seq = 1; seq <= 500; ++seq) {
    // Few distinct keys, negative ones included: ties are the common case.
    const auto key = static_cast<std::int64_t>(rng.below(7)) - 3;
    heap.push(key, seq, Item{key, seq});
    model.push_back(Item{key, seq});
    EXPECT_TRUE(heap.ordered());
  }
  EXPECT_EQ(heap.size(), 500u);
  std::sort(model.begin(), model.end());
  EXPECT_EQ(drain(heap), model);
}

TEST(SlotHeap, InterleavedPushPopMatchesModel) {
  SlotHeap<Item> heap;
  Rng rng(6);
  std::vector<Item> model;
  std::uint64_t seq = 0;
  for (int step = 0; step < 4000; ++step) {
    if (model.empty() || rng.chance(0.6)) {
      const auto key = static_cast<std::int64_t>(rng.below(50));
      ++seq;
      heap.push(key, seq, Item{key, seq});
      model.push_back(Item{key, seq});
    } else {
      const auto least = std::min_element(model.begin(), model.end());
      EXPECT_EQ(heap.pop(), *least);
      model.erase(least);
    }
    ASSERT_EQ(heap.size(), model.size());
  }
  std::sort(model.begin(), model.end());
  EXPECT_EQ(drain(heap), model);
}

TEST(SlotHeap, RemoveMaxTakesTheUniqueLargestEntry) {
  SlotHeap<Item> heap;
  Rng rng(7);
  std::vector<Item> model;
  for (std::uint64_t seq = 1; seq <= 64; ++seq) {
    const auto key = -static_cast<std::int64_t>(rng.below(4));
    heap.push(key, seq, Item{key, seq});
    model.push_back(Item{key, seq});
  }
  // The largest key class is the lowest priority; within it the newest
  // (largest seq) goes first.
  for (int i = 0; i < 40; ++i) {
    const auto largest = std::max_element(model.begin(), model.end());
    EXPECT_EQ(heap.remove_max(), *largest);
    model.erase(largest);
    EXPECT_TRUE(heap.ordered());
  }
  std::sort(model.begin(), model.end());
  EXPECT_EQ(drain(heap), model);
}

TEST(SlotHeap, EraseIfThenReheapifyKeepsOrder) {
  SlotHeap<Item> heap;
  Rng rng(8);
  std::vector<Item> model;
  for (std::uint64_t seq = 1; seq <= 300; ++seq) {
    const auto key = static_cast<std::int64_t>(rng.below(20));
    heap.push(key, seq, Item{key, seq});
    model.push_back(Item{key, seq});
  }
  const auto odd = [](const Item& it) { return it.seq % 2 == 1; };
  EXPECT_EQ(heap.erase_if(odd), 150u);
  EXPECT_EQ(heap.size(), 150u);
  EXPECT_TRUE(heap.ordered());
  std::erase_if(model, odd);
  // The erased slots are free again: new pushes reuse them and order with
  // the survivors.
  for (std::uint64_t seq = 301; seq <= 320; ++seq) {
    const auto key = static_cast<std::int64_t>(rng.below(20));
    heap.push(key, seq, Item{key, seq});
    model.push_back(Item{key, seq});
  }
  EXPECT_EQ(heap.slot_count(), 300u);
  std::sort(model.begin(), model.end());
  EXPECT_EQ(drain(heap), model);
  EXPECT_EQ(heap.erase_if(odd), 0u);  // on an empty heap
}

TEST(SlotHeap, FreedSlotsAreReusedLifo) {
  SlotHeap<std::string> heap;
  const std::uint32_t a = heap.push(1, 1, "a");
  const std::uint32_t b = heap.push(2, 2, "b");
  const std::uint32_t c = heap.push(3, 3, "c");
  EXPECT_EQ(heap.slot(b), "b");
  EXPECT_EQ(heap.pop(), "a");
  EXPECT_EQ(heap.pop(), "b");
  // Most recently freed first: b's slot, then a's, then a new one.
  EXPECT_EQ(heap.push(9, 4, "d"), b);
  EXPECT_EQ(heap.push(9, 5, "e"), a);
  EXPECT_EQ(heap.push(9, 6, "f"), 3u);
  EXPECT_EQ(heap.remove_max(), "f");
  EXPECT_EQ(heap.push(0, 7, "g"), 3u);
  EXPECT_EQ(heap.top().slot, 3u);
  EXPECT_EQ(heap.slot(c), "c");
  heap.clear();
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(heap.slot_count(), 0u);
  EXPECT_EQ(heap.push(5, 8, "h"), 0u);
}

}  // namespace
}  // namespace dde
