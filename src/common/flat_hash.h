// Flat open-addressing hash map from uint64 keys to small values — the
// determinism-preserving facade the hot-path tables sit behind. A set is a
// map whose values go unused.
//
// Why not std::unordered_map: tree-wide policy (docs/STATIC_ANALYSIS.md)
// bans iteration over unordered containers because their order leaks the
// allocator; and the node-based layout costs an allocation per entry. This
// table is a single contiguous array, linear probing, splitmix64-mixed —
// and its original clients (the dedup tables) use NO iteration at all:
// lookups, inserts, and erases only. The athena tranche added two
// carefully bounded iteration forms, both deterministic by construction
// because slot layout is a pure function of the operation history
// (constant hash, power-of-two capacity schedule, deterministic rebuild):
//
//   * for_each / erase_if — slot-index order. Legitimate only for
//     commutative folds and independent per-entry updates; anything whose
//     output depends on visit order must go through sorted_keys().
//   * sorted_keys() — ascending key order, for trajectory-pinned walks.
//
// A default-constructed table holds no slots: the first insert allocates
// it, so a table that is never filled costs nothing. Erasure uses
// tombstone control bytes; a rebuild (entries re-laid in slot-index order
// — deterministic) reclaims them once they would degrade probing, and
// sizes the table to the live entries, so it grows with the caller and
// shrinks after a burst.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/contracts.h"

namespace dde {

/// The probe start of every flat table: the splitmix64 finalizer —
/// full-avalanche, constant, platform-independent.
[[nodiscard]] constexpr std::uint64_t flat_mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

template <typename V>
class FlatU64Map {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Slots allocated (live, tombstoned and empty).
  [[nodiscard]] std::size_t capacity() const noexcept { return ctrl_.size(); }

  /// Pointer to the value for `key`, or nullptr.
  [[nodiscard]] V* find(std::uint64_t key) noexcept {
    if (size_ == 0) return nullptr;  // also the unallocated table
    std::size_t i = flat_mix(key) & mask_;
    for (;;) {
      const Ctrl c = ctrl_[i];
      if (c == Ctrl::kEmpty) return nullptr;
      if (c == Ctrl::kFull && keys_[i] == key) return &values_[i];
      i = (i + 1) & mask_;
    }
  }
  [[nodiscard]] const V* find(std::uint64_t key) const noexcept {
    return const_cast<FlatU64Map*>(this)->find(key);
  }

  /// Insert a key that is NOT present (checked): the dedup-table callers
  /// always probe first, so a double insert is a logic error upstream.
  void insert(std::uint64_t key, V value) {
    if ((size_ + tombstones_ + 1) * 2 > ctrl_.size()) {
      // Size by the live entries alone (a quarter full at most): counting
      // tombstones doubled a churning table on every rebuild.
      rebuild(table_for(2 * (size_ + 1)));
    }
    std::size_t i = flat_mix(key) & mask_;
    for (;;) {
      const Ctrl c = ctrl_[i];
      if (c != Ctrl::kFull) {
        if (c == Ctrl::kTombstone) --tombstones_;
        ctrl_[i] = Ctrl::kFull;
        keys_[i] = key;
        values_[i] = std::move(value);
        ++size_;
        return;
      }
      DDE_CHECK(keys_[i] != key, "FlatU64Map: duplicate insert");
      i = (i + 1) & mask_;
    }
  }

  /// Remove `key` if present. Returns whether it was.
  bool erase(std::uint64_t key) noexcept {
    if (size_ == 0) return false;
    std::size_t i = flat_mix(key) & mask_;
    for (;;) {
      const Ctrl c = ctrl_[i];
      if (c == Ctrl::kEmpty) return false;
      if (c == Ctrl::kFull && keys_[i] == key) {
        ctrl_[i] = Ctrl::kTombstone;
        values_[i] = V{};
        --size_;
        ++tombstones_;
        return true;
      }
      i = (i + 1) & mask_;
    }
  }

  /// Insert only if `key` is absent. Returns whether it inserted.
  bool insert_if_absent(std::uint64_t key, V value) {
    if (find(key) != nullptr) return false;
    insert(key, std::move(value));
    return true;
  }

  /// Value for `key`, default-constructing (and inserting) it if absent —
  /// the operator[] equivalent. The returned reference is invalidated by
  /// any later insert (the table may rebuild).
  [[nodiscard]] V& find_or_insert(std::uint64_t key) {
    if (V* v = find(key)) return *v;
    insert(key, V{});
    return *find(key);
  }

  /// Drop every entry, keeping the current capacity.
  void clear() noexcept {
    for (std::size_t i = 0; i < ctrl_.size(); ++i) {
      if (ctrl_[i] == Ctrl::kFull) values_[i] = V{};
      ctrl_[i] = Ctrl::kEmpty;
    }
    size_ = 0;
    tombstones_ = 0;
  }

  /// Visit every (key, value) in slot-index order. Slot order is
  /// deterministic but NOT meaningful: use only for commutative folds or
  /// independent per-entry updates. `fn` must not insert or erase.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::size_t i = 0; i < ctrl_.size(); ++i) {
      if (ctrl_[i] == Ctrl::kFull) fn(keys_[i], values_[i]);
    }
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < ctrl_.size(); ++i) {
      if (ctrl_[i] == Ctrl::kFull) {
        fn(keys_[i], static_cast<const V&>(values_[i]));
      }
    }
  }

  /// Erase every entry for which `pred(key, value)` holds; visit order is
  /// slot order (each decision must be independent of the others).
  /// Returns the number erased.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    std::size_t erased = 0;
    for (std::size_t i = 0; i < ctrl_.size(); ++i) {
      if (ctrl_[i] == Ctrl::kFull && pred(keys_[i], values_[i])) {
        ctrl_[i] = Ctrl::kTombstone;
        values_[i] = V{};
        --size_;
        ++tombstones_;
        ++erased;
      }
    }
    return erased;
  }

  /// All live keys in ascending order — the facade for any walk whose
  /// visit order is observable (trajectory-pinned sites).
  [[nodiscard]] std::vector<std::uint64_t> sorted_keys() const {
    std::vector<std::uint64_t> keys;
    keys.reserve(size_);
    for (std::size_t i = 0; i < ctrl_.size(); ++i) {
      if (ctrl_[i] == Ctrl::kFull) keys.push_back(keys_[i]);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  }

 private:
  enum class Ctrl : std::uint8_t { kEmpty, kFull, kTombstone };

  static std::size_t table_for(std::size_t expected) noexcept {
    std::size_t n = 16;
    while (n < expected * 2) n *= 2;
    return n;
  }

  void rebuild(std::size_t new_size) {
    std::vector<Ctrl> old_ctrl = std::move(ctrl_);
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<V> old_values = std::move(values_);
    ctrl_.assign(new_size, Ctrl::kEmpty);
    keys_.assign(new_size, 0);
    values_.assign(new_size, V{});
    mask_ = new_size - 1;
    size_ = 0;
    tombstones_ = 0;
    for (std::size_t i = 0; i < old_ctrl.size(); ++i) {
      if (old_ctrl[i] == Ctrl::kFull) {
        insert(old_keys[i], std::move(old_values[i]));
      }
    }
  }

  std::vector<Ctrl> ctrl_;
  std::vector<std::uint64_t> keys_;
  std::vector<V> values_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::size_t tombstones_ = 0;
};

}  // namespace dde
