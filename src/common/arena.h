// Small inline containers for in-flight hot-path state, and the chunk
// size rule for chunked per-node storage:
//
//   kPageSlots<T>  — slots of T per ~4 KB page: the chunk size of
//                    cache::TtlCache's slot storage.
//   SmallVec<T,N>  — a vector with N inline elements; spills wholesale to
//                    heap storage when it outgrows them. Contiguous in
//                    both modes (begin()/end() are plain pointers).
//   SmallMap<K,V,N>— insertion-ordered association list on SmallVec.
//                    Linear scans; intended for maps whose expected size
//                    is a handful (per-query outstanding/retry state).
//   SmallSet<T,N>  — insertion-ordered membership list on SmallVec.
//
// Determinism: none of these structures involve hashing; iteration order
// is insertion order, a pure function of the operation history.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/contracts.h"

namespace dde {

/// Slots of T that fit one ~4 KB page, and at least one: the chunk size
/// of every chunked per-node store (cache::TtlCache), so a node's
/// resident memory follows what it holds rather than a fixed reservation.
template <typename T>
inline constexpr std::size_t kPageSlots =
    sizeof(T) >= 4096 ? 1 : 4096 / sizeof(T);

/// Vector with N inline elements and wholesale spill to heap storage.
///
/// While size() <= N the elements live in the inline array; the first
/// push past N moves everything into one heap array (doubling as it
/// grows) and the inline array is abandoned until clear(). Either way
/// storage is contiguous, so begin()/end() are plain pointers and the
/// standard algorithms apply. The spill bookkeeping is one pointer and two
/// u32 words, so a SmallVec<T, N> is N T's plus 16 bytes (for T aligned to
/// at most 8). Requires T to be default-constructible and movable. Inline slots past size() hold
/// T{}, so a popped element releases what it owned.
template <typename T, std::size_t N>
class SmallVec {
  static_assert(N >= 1, "SmallVec needs at least one inline slot");
  static_assert(N <= 0xffffffffu / 2, "SmallVec sizes are u32");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVec() = default;

  /// Deep copy: a spilled source gets a heap array of its own.
  SmallVec(const SmallVec& other)
      : inline_(other.inline_), size_(other.size_) {
    if (other.spilled()) {
      capacity_ = std::max<std::uint32_t>(other.size_, 2 * N);
      heap_ = std::make_unique<T[]>(capacity_);
      std::copy(other.begin(), other.end(), heap_.get());
    }
  }
  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) *this = SmallVec(other);
    return *this;
  }

  /// Takes `other`'s elements and leaves it empty and inline.
  SmallVec(SmallVec&& other) noexcept(std::is_nothrow_move_assignable_v<T>) {
    take(other);
  }
  SmallVec& operator=(SmallVec&& other) noexcept(
      std::is_nothrow_move_assignable_v<T>) {
    if (this != &other) {
      clear();
      take(other);
    }
    return *this;
  }

  void push_back(T value) {
    if (!spilled()) {
      if (size_ < N) {
        inline_[size_] = std::move(value);
        ++size_;
        return;
      }
      grow(2 * N, inline_.data());
    } else if (size_ == capacity_) {
      grow(2 * std::size_t{capacity_}, heap_.get());
    }
    heap_[size_] = std::move(value);
    ++size_;
  }

  void pop_back() {
    DDE_CHECK(size_ > 0, "SmallVec::pop_back on empty");
    --size_;
    data()[size_] = T{};
  }

  [[nodiscard]] T* data() { return spilled() ? heap_.get() : inline_.data(); }
  [[nodiscard]] const T* data() const {
    return spilled() ? heap_.get() : inline_.data();
  }

  [[nodiscard]] iterator begin() { return data(); }
  [[nodiscard]] iterator end() { return data() + size_; }
  [[nodiscard]] const_iterator begin() const { return data(); }
  [[nodiscard]] const_iterator end() const { return data() + size_; }

  [[nodiscard]] T& operator[](std::size_t i) {
    DDE_ASSERT(i < size_);
    return data()[i];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    DDE_ASSERT(i < size_);
    return data()[i];
  }

  [[nodiscard]] T& back() {
    DDE_CHECK(size_ > 0, "SmallVec::back on empty");
    return data()[size_ - 1];
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Whether the elements live on the heap (size() has exceeded N since
  /// the last clear()).
  [[nodiscard]] bool spilled() const { return heap_ != nullptr; }

  /// Drop every element and any heap array: back to inline storage.
  void clear() {
    if (spilled()) {
      heap_.reset();
      capacity_ = N;
    } else {
      for (std::size_t i = 0; i < size_; ++i) inline_[i] = T{};
    }
    size_ = 0;
  }

  /// Remove every element matching `pred`, preserving relative order.
  template <typename Pred>
  std::size_t remove_if(Pred pred) {
    T* first = data();
    T* last = first + size_;
    T* keep = first;
    for (T* it = first; it != last; ++it) {
      if (!pred(*it)) {
        if (keep != it) *keep = std::move(*it);
        ++keep;
      }
    }
    auto removed = static_cast<std::size_t>(last - keep);
    for (std::size_t i = 0; i < removed; ++i) pop_back();
    return removed;
  }

  /// Remove the element at index `i`, preserving relative order.
  void erase_at(std::size_t i) {
    DDE_CHECK(i < size_, "SmallVec::erase_at out of range");
    T* d = data();
    for (std::size_t j = i + 1; j < size_; ++j) d[j - 1] = std::move(d[j]);
    pop_back();
  }

 private:
  /// Move the size() elements at `from` into a fresh heap array of
  /// `capacity` slots; inline slots left behind are reset to T{}.
  void grow(std::size_t capacity, T* from) {
    DDE_CHECK(capacity <= 0xffffffffu, "SmallVec capacity exceeds u32");
    auto fresh = std::make_unique<T[]>(capacity);
    for (std::size_t i = 0; i < size_; ++i) {
      fresh[i] = std::move(from[i]);
      from[i] = T{};
    }
    heap_ = std::move(fresh);
    capacity_ = static_cast<std::uint32_t>(capacity);
  }

  /// Move `other`'s elements into this (empty, inline) vector.
  void take(SmallVec& other) noexcept(std::is_nothrow_move_assignable_v<T>) {
    if (other.spilled()) {
      heap_ = std::move(other.heap_);
      capacity_ = other.capacity_;
      other.capacity_ = N;
    } else {
      for (std::size_t i = 0; i < other.size_; ++i) {
        inline_[i] = std::move(other.inline_[i]);
        other.inline_[i] = T{};
      }
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  std::array<T, N> inline_{};
  std::unique_ptr<T[]> heap_;       ///< null while the elements are inline
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = N;      ///< heap_'s length once spilled
};

/// Insertion-ordered flat map with linear-scan lookup.
/// For per-query maps whose expected population is a handful of entries.
template <typename K, typename V, std::size_t N>
class SmallMap {
 public:
  struct Item {
    K key{};
    V value{};
  };
  using const_iterator = const Item*;

  [[nodiscard]] V* find(const K& key) {
    for (Item& item : items_) {
      if (item.key == key) return &item.value;
    }
    return nullptr;
  }
  [[nodiscard]] const V* find(const K& key) const {
    for (const Item& item : items_) {
      if (item.key == key) return &item.value;
    }
    return nullptr;
  }

  [[nodiscard]] bool contains(const K& key) const { return find(key) != nullptr; }

  /// operator[] equivalent: existing value or freshly default-constructed.
  [[nodiscard]] V& ref(const K& key) {
    if (V* v = find(key)) return *v;
    items_.push_back(Item{key, V{}});
    return items_.back().value;
  }

  void set(const K& key, V value) { ref(key) = std::move(value); }

  bool erase(const K& key) {
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (items_[i].key == key) {
        items_.erase_at(i);
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] const_iterator begin() const { return items_.begin(); }
  [[nodiscard]] const_iterator end() const { return items_.end(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  void clear() { items_.clear(); }

 private:
  SmallVec<Item, N> items_;
};

/// Insertion-ordered flat set with linear-scan lookup.
template <typename T, std::size_t N>
class SmallSet {
 public:
  using const_iterator = const T*;

  /// Returns true if inserted, false if already present.
  bool insert(const T& value) {
    if (contains(value)) return false;
    items_.push_back(value);
    return true;
  }

  [[nodiscard]] bool contains(const T& value) const {
    for (const T& item : items_) {
      if (item == value) return true;
    }
    return false;
  }

  bool erase(const T& value) {
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (items_[i] == value) {
        items_.erase_at(i);
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] const_iterator begin() const { return items_.begin(); }
  [[nodiscard]] const_iterator end() const { return items_.end(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  void clear() { items_.clear(); }

 private:
  SmallVec<T, N> items_;
};

}  // namespace dde
