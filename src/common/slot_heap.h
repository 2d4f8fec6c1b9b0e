// 4-ary min-heap over (int64 key, u64 seq) with values parked in slots —
// the one priority queue behind des::Simulator's event queue and
// net::Network's per-link waiting queues.
//
// The heap array holds small entries (key, seq, slot); the values stay put
// in a slot vector and are reused through a LIFO free list, so a sift
// moves 24 bytes instead of a callback or a packet. Callers make (key, seq)
// unique (seq is an insertion counter), so the pop order is a pure
// function of the keys: any correct heap serves the same sequence, and
// nothing depends on addresses or hashes. Four children per node keep the
// heap shallow; a binary heap cost more host time per decision on the
// perfbench workloads.
//
// Besides push/top/pop the queue offers remove_max(), a linear scan:
// bounded link queues evict their lowest-priority, newest packet only once
// past their cap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/contracts.h"

namespace dde {

template <typename T>
class SlotHeap {
 public:
  struct Entry {
    std::int64_t key;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  /// Slots ever allocated (held and free): every slot below it is valid.
  [[nodiscard]] std::size_t slot_count() const noexcept { return slots_.size(); }

  /// Park `value` in the most recently freed slot (or a new one) and queue
  /// it under (key, seq). Returns the slot.
  std::uint32_t push(std::int64_t key, std::uint64_t seq, T value) {
    std::uint32_t s;
    if (!free_.empty()) {
      s = free_.back();
      free_.pop_back();
      slots_[s] = std::move(value);
    } else {
      DDE_CHECK(slots_.size() < 0xffffffffu, "SlotHeap slot space exhausted");
      s = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(std::move(value));
    }
    heap_.push_back(Entry{key, seq, s});
    sift_up(heap_.size() - 1);
    return s;
  }

  /// The least (key, seq) entry.
  [[nodiscard]] const Entry& top() const {
    DDE_CHECK(!heap_.empty(), "SlotHeap: top of empty heap");
    return heap_.front();
  }

  /// Remove the least entry and return its value.
  T pop() {
    DDE_CHECK(!heap_.empty(), "SlotHeap: pop from empty heap");
    return remove_at(0);
  }

  /// Remove the greatest entry and return its value. O(size) scan.
  T remove_max() {
    DDE_CHECK(!heap_.empty(), "SlotHeap: remove_max from empty heap");
    std::size_t worst = 0;
    for (std::size_t i = 1; i < heap_.size(); ++i) {
      if (less(heap_[worst], heap_[i])) worst = i;
    }
    return remove_at(worst);
  }

  /// Drop every entry and every slot.
  void clear() {
    heap_.clear();
    slots_.clear();
    free_.clear();
  }

  /// Whether every entry orders at or after its parent (for invariants).
  [[nodiscard]] bool ordered() const noexcept {
    for (std::size_t i = 1; i < heap_.size(); ++i) {
      if (less(heap_[i], heap_[(i - 1) / kArity])) return false;
    }
    return true;
  }

 private:
  static constexpr std::size_t kArity = 4;

  static bool less(const Entry& a, const Entry& b) noexcept {
    if (a.key != b.key) return a.key < b.key;
    return a.seq < b.seq;
  }

  /// Move the value out and free the slot. The slot keeps the moved-from
  /// value until a push reuses it.
  T release(std::uint32_t s) {
    T value = std::move(slots_[s]);
    free_.push_back(s);
    return value;
  }

  T remove_at(std::size_t pos) {
    const std::uint32_t s = heap_[pos].slot;
    heap_[pos] = heap_.back();
    heap_.pop_back();
    if (pos < heap_.size()) {
      sift_down(pos);
      sift_up(pos);
    }
    return release(s);
  }

  void sift_up(std::size_t pos) {
    const Entry moving = heap_[pos];
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / kArity;
      if (!less(moving, heap_[parent])) break;
      heap_[pos] = heap_[parent];
      pos = parent;
    }
    heap_[pos] = moving;
  }

  void sift_down(std::size_t pos) {
    const std::size_t n = heap_.size();
    if (pos >= n) return;
    const Entry moving = heap_[pos];
    for (;;) {
      const std::size_t first = kArity * pos + 1;
      if (first >= n) break;
      const std::size_t last = std::min(first + kArity, n);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (less(heap_[c], heap_[best])) best = c;
      }
      if (!less(heap_[best], moving)) break;
      heap_[pos] = heap_[best];
      pos = best;
    }
    heap_[pos] = moving;
  }

  std::vector<Entry> heap_;
  std::vector<T> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace dde
