// Freshness-aware caches (Sec. VI-B, VI-D).
//
// Every Athena node caches evidence objects and label values that pass
// through it. Entries carry an absolute expiry; a lookup at time t only
// returns entries that are still fresh at t. Lookups have no side effects.
// Capacity is bounded; expired entries are pruned on insert, and capacity
// pressure evicts the least-recently-put live entry (a refresh counts as a
// put).
//
// Layout (city-scale push, second tranche — docs/PERFORMANCE.md): the
// original std::unordered_map + std::list<K> paid two node allocations
// per entry and a full-map expiry sweep inside every put(). The cache is
// now flat:
//
//   * an open-addressed index of slot numbers, probed by the key's u64
//     code and compared against the key the slot holds (entries live in
//     the slots, no per-entry heap allocation once the storage reaches
//     steady state; 4 bytes per index entry);
//   * slot storage in fixed chunks of kPageSlots<Slot> (~4 KB each,
//     common/arena.h) that are allocated as the slot count first needs
//     them and never move, so growth copies no value and leaves no
//     freed block behind;
//   * an intrusive doubly-linked LRU threaded through the slots
//     (prev/next indices, head = most recently put);
//   * a lazy min-heap of (expires_at, slot, generation) triples so
//     prune() pops only entries that have actually expired instead of
//     sweeping the whole table. A slot's generation is bumped on every
//     refresh/erase, so stale heap nodes are recognized and discarded.
//
// Equivalence with the old container is exact: the same entries are
// removed at the same times with the same stat attribution (removal
// order within one prune() differs, but every observable — membership,
// LRU order, and the commutative stat sums — is identical). The old
// semantics are pinned by tests/test_ttl_cache.cpp.
//
// Pointer stability: a slot's address never changes, but its contents
// do. The next mutating call may overwrite the entry, or drop it (expiry,
// eviction, erase) and recycle its slot for another key (the free list
// is LIFO), so callers must still not hold a value returned by peek()
// across a put(); all in-tree callers use it and drop it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/contracts.h"
#include "common/flat_hash.h"
#include "common/sim_time.h"

namespace dde::cache {

/// Cache statistics. Removal causes are disjoint: `evictions` counts only
/// capacity-pressure LRU drops, `expired_drops` only TTL expiries,
/// `flushed` only clear() wipes, and `invalidated` only explicit
/// erase_key()/erase_if() removals. Conservation identity (pinned in
/// tests/test_ttl_cache.cpp):
///   insertions == live + evictions + expired_drops + flushed + invalidated.
struct CacheStats {
  std::uint64_t insertions = 0;     ///< new entries only (not refreshes)
  std::uint64_t refreshes = 0;      ///< in-place overwrites of a live key
  std::uint64_t evictions = 0;      ///< capacity-pressure LRU drops only
  std::uint64_t expired_drops = 0;  ///< entries removed because their TTL ran out
  std::uint64_t flushed = 0;        ///< entries removed by clear()
  std::uint64_t invalidated = 0;    ///< entries removed by erase_key()/erase_if()

  bool operator==(const CacheStats&) const = default;
};

/// Calls f(name, field) for every field of `s` (published as
/// cache.<cache>.<name>).
template <typename S, typename F>
  requires std::is_same_v<std::remove_const_t<S>, CacheStats>
constexpr void for_each_field(S& s, F&& f) {
  f("insertions", s.insertions);
  f("refreshes", s.refreshes);
  f("evictions", s.evictions);
  f("expired_drops", s.expired_drops);
  f("flushed", s.flushed);
  f("invalidated", s.invalidated);
}

/// A bounded TTL + LRU cache.
///
/// K must be equality-comparable and encode injectively to uint64: either
/// an integral type or a StrongId-style type exposing `.value()`. V is
/// stored by value.
template <typename K, typename V>
class TtlCache {
 public:
  /// `capacity` = max number of entries (0 disables caching entirely).
  explicit TtlCache(std::size_t capacity) : capacity_(capacity) {}

  /// Insert or refresh an entry that expires at `expires_at`.
  void put(const K& key, V value, SimTime expires_at, SimTime now) {
    if (capacity_ == 0) return;
    prune(now);
    if (const std::uint32_t slot = find_slot(key); slot != kNil) {
      Slot& s = slot_at(slot);
      s.value = std::move(value);
      s.expires_at = expires_at;
      ++s.gen;
      push_expiry(slot);
      move_to_front(slot);
      ++stats_.refreshes;
      return;
    }
    if (live_ >= capacity_) evict_one();
    const std::uint32_t slot = alloc_slot();
    Slot& s = slot_at(slot);
    s.key = key;
    s.value = std::move(value);
    s.expires_at = expires_at;
    ++s.gen;
    index_insert(slot);
    link_front(slot);
    ++live_;
    push_expiry(slot);
    ++stats_.insertions;
    DDE_INVARIANT(consistent(), "TtlCache: index/LRU desync after put");
  }

  /// The value of `key` if present and fresh at `now`, else nullptr. No
  /// stats or LRU effects.
  [[nodiscard]] const V* peek(const K& key, SimTime now) const {
    const std::uint32_t slot = find_slot(key);
    if (slot == kNil || slot_at(slot).expires_at <= now) return nullptr;
    return &slot_at(slot).value;
  }

  /// Remove an entry (explicit invalidation, counted in `invalidated`).
  /// Returns true if present.
  bool erase_key(const K& key) {
    const std::uint32_t slot = find_slot(key);
    if (slot == kNil) return false;
    erase_slot(slot);
    ++stats_.invalidated;
    return true;
  }

  /// Remove every entry for which `pred(key, value)` returns true; each
  /// removal counts in `invalidated`. Visit order is slot order, so the
  /// predicate must be independent per entry.
  template <typename Pred>
  void erase_if(Pred pred) {
    for (std::uint32_t i = 0; i < slot_count_; ++i) {
      if (slot_at(i).in_lru && pred(slot_at(i).key, slot_at(i).value)) {
        erase_slot(i);
        ++stats_.invalidated;
      }
    }
  }

  /// Drop all expired entries. Freshness drops, not capacity pressure:
  /// counted in expired_drops, never in evictions. Amortized O(k log n)
  /// for k actual expiries — never a full-table sweep.
  void prune(SimTime now) {
    while (!heap_.empty() && heap_.front().at <= now) {
      const HeapItem item = heap_.front();
      pop_heap_front();
      Slot& s = slot_at(item.slot);
      if (s.in_lru && s.gen == item.gen) {
        // Generation matched, so item.at is this entry's current expiry
        // and it has genuinely run out.
        erase_slot(item.slot);
        ++stats_.expired_drops;
      }
    }
    maybe_compact_heap();
  }

  [[nodiscard]] std::size_t size() const noexcept { return live_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Slots allocated so far: whole chunks of kPageSlots<Slot> each.
  [[nodiscard]] std::size_t slot_capacity() const noexcept {
    return chunks_.size() * kChunkSlots;
  }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }

  void clear() {
    stats_.flushed += live_;
    index_.clear();
    tombstones_ = 0;
    chunks_.clear();
    slot_count_ = 0;
    free_.clear();
    heap_.clear();
    head_ = tail_ = kNil;
    live_ = 0;
  }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  /// Index entry of an erased key (kNil marks a never-used entry).
  static constexpr std::uint32_t kTombstone = kNil - 1;

  struct Slot {
    K key{};
    V value{};
    SimTime expires_at{};
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    std::uint32_t gen = 0;   ///< bumped on refresh/erase; tags heap items
    bool in_lru = false;     ///< slot holds a live entry
  };

  static constexpr std::size_t kChunkSlots = kPageSlots<Slot>;

  [[nodiscard]] Slot& slot_at(std::uint32_t i) {
    return chunks_[i / kChunkSlots][i % kChunkSlots];
  }
  [[nodiscard]] const Slot& slot_at(std::uint32_t i) const {
    return chunks_[i / kChunkSlots][i % kChunkSlots];
  }

  struct HeapItem {
    SimTime at;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  /// Injective u64 code for the key (hash-free: the flat index mixes it).
  static std::uint64_t code(const K& key) noexcept {
    if constexpr (std::is_integral_v<K>) {
      return static_cast<std::uint64_t>(key);
    } else {
      return key.value();
    }
  }

  // ---- slot pool -----------------------------------------------------

  std::uint32_t alloc_slot() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    DDE_CHECK(slot_count_ < kTombstone, "TtlCache: slot space exhausted");
    if (slot_count_ % kChunkSlots == 0) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
    }
    return slot_count_++;
  }

  /// Unlink + index-erase + recycle. Stat attribution is the caller's job.
  void erase_slot(std::uint32_t slot) {
    Slot& s = slot_at(slot);
    DDE_CHECK(s.in_lru, "TtlCache: erase of a dead slot (accounting desync)");
    index_erase(slot);
    unlink(slot);
    s.in_lru = false;
    ++s.gen;  // orphan any heap items still pointing here
    s.key = K{};
    s.value = V{};
    --live_;
    free_.push_back(slot);
    DDE_INVARIANT(consistent(), "TtlCache: index/LRU desync after erase");
  }

  // ---- key index -----------------------------------------------------
  //
  // Linear probing from flat_mix(code(key)) over slot numbers, load at
  // most 1/2 counting tombstones, growing and rebuilding as FlatU64Map
  // does. Nothing iterates the index, so its layout is unobservable.

  [[nodiscard]] std::size_t index_mask() const { return index_.size() - 1; }

  /// The slot holding `key`, or kNil.
  [[nodiscard]] std::uint32_t find_slot(const K& key) const {
    if (index_.empty()) return kNil;
    const std::uint64_t c = code(key);
    for (std::size_t i = flat_mix(c) & index_mask();;
         i = (i + 1) & index_mask()) {
      const std::uint32_t e = index_[i];
      if (e == kNil) return kNil;
      if (e != kTombstone && code(slot_at(e).key) == c) return e;
    }
  }

  /// Index `slot`, whose key is absent from the index.
  void index_insert(std::uint32_t slot) {
    if ((live_ + tombstones_ + 1) * 2 > index_.size()) {
      const std::size_t n = index_.size();
      rebuild_index(n == 0                         ? 16
                    : live_ * 2 + tombstones_ > n / 2 ? 2 * n
                                                      : n);
    }
    std::size_t i = flat_mix(code(slot_at(slot).key)) & index_mask();
    while (index_[i] < kTombstone) i = (i + 1) & index_mask();
    if (index_[i] == kTombstone) --tombstones_;
    index_[i] = slot;
  }

  void index_erase(std::uint32_t slot) {
    std::size_t i = flat_mix(code(slot_at(slot).key)) & index_mask();
    while (index_[i] != slot) i = (i + 1) & index_mask();
    index_[i] = kTombstone;
    ++tombstones_;
  }

  void rebuild_index(std::size_t size) {
    std::vector<std::uint32_t> old = std::move(index_);
    index_.assign(size, kNil);
    tombstones_ = 0;
    for (const std::uint32_t e : old) {
      if (e >= kTombstone) continue;
      std::size_t i = flat_mix(code(slot_at(e).key)) & index_mask();
      while (index_[i] != kNil) i = (i + 1) & index_mask();
      index_[i] = e;
    }
  }

  // ---- intrusive LRU list (head = most recent) -----------------------

  void link_front(std::uint32_t slot) {
    Slot& s = slot_at(slot);
    s.prev = kNil;
    s.next = head_;
    s.in_lru = true;
    if (head_ != kNil) slot_at(head_).prev = slot;
    head_ = slot;
    if (tail_ == kNil) tail_ = slot;
  }

  void unlink(std::uint32_t slot) {
    Slot& s = slot_at(slot);
    if (s.prev != kNil) slot_at(s.prev).next = s.next; else head_ = s.next;
    if (s.next != kNil) slot_at(s.next).prev = s.prev; else tail_ = s.prev;
    s.prev = s.next = kNil;
  }

  void move_to_front(std::uint32_t slot) {
    if (head_ == slot) return;
    unlink(slot);
    link_front(slot);
  }

  // ---- lazy expiry heap ----------------------------------------------

  static bool heap_after(const HeapItem& a, const HeapItem& b) noexcept {
    // std::push_heap keeps the max on top; reverse so the top is the
    // earliest expiry. Ties broken by (slot, gen) for a total order.
    if (a.at != b.at) return b.at < a.at;
    if (a.slot != b.slot) return b.slot < a.slot;
    return b.gen < a.gen;
  }

  void push_expiry(std::uint32_t slot) {
    const Slot& s = slot_at(slot);
    heap_.push_back(HeapItem{s.expires_at, slot, s.gen});
    std::push_heap(heap_.begin(), heap_.end(), heap_after);
  }

  void pop_heap_front() {
    std::pop_heap(heap_.begin(), heap_.end(), heap_after);
    heap_.pop_back();
  }

  /// Refreshes and erases orphan their old heap items; rebuild the heap
  /// from the live entries once orphans dominate, so it cannot grow
  /// unboundedly under refresh churn.
  void maybe_compact_heap() {
    if (heap_.size() <= 4 * live_ + 64) return;
    heap_.clear();
    for (std::uint32_t i = 0; i < slot_count_; ++i) {
      const Slot& s = slot_at(i);
      if (s.in_lru) heap_.push_back(HeapItem{s.expires_at, i, s.gen});
    }
    std::make_heap(heap_.begin(), heap_.end(), heap_after);
  }

  /// O(n) full consistency sweep: LRU links form a consistent chain over
  /// exactly the live slots, and each live key indexes back to its slot.
  /// Compiled in only under DDE_INVARIANTS (CI runs the suite with it ON).
  [[nodiscard]] bool consistent() const {
    std::size_t walked = 0;
    std::uint32_t prev = kNil;
    for (std::uint32_t at = head_; at != kNil; at = slot_at(at).next) {
      if (!slot_at(at).in_lru || slot_at(at).prev != prev) return false;
      if (find_slot(slot_at(at).key) != at) return false;
      prev = at;
      if (++walked > live_) return false;
    }
    const auto indexed = std::count_if(
        index_.begin(), index_.end(),
        [](std::uint32_t e) { return e < kTombstone; });
    return walked == live_ && tail_ == prev &&
           static_cast<std::size_t>(indexed) == live_;
  }

  void evict_one() {
    // Capacity pressure on the per-object hot path: O(1), no full scan.
    // put() pruned every expired entry just before calling this, so the
    // LRU tail is the least-recently-used entry and still fresh.
    if (tail_ == kNil) return;
    erase_slot(tail_);
    ++stats_.evictions;
  }

  std::size_t capacity_;
  /// Slot numbers (kNil = empty, kTombstone = erased); empty until the
  /// first put, then a power of two.
  std::vector<std::uint32_t> index_;
  std::size_t tombstones_ = 0;
  /// Slot i is chunks_[i / kChunkSlots][i % kChunkSlots]; slots below
  /// slot_count_ exist, and chunks never move once allocated.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::vector<std::uint32_t> free_;
  std::vector<HeapItem> heap_;
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  std::size_t live_ = 0;
  CacheStats stats_;
};

}  // namespace dde::cache
