// How an Athena node routes replies back (Sec. VI-B): the interest table,
// the interest-aggregation markers of upstream requests in flight, and the
// sources whose interests the next label share re-checks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "athena/config.h"
#include "athena/directory.h"
#include "athena/messages.h"
#include "common/arena.h"
#include "common/contracts.h"
#include "common/flat_hash.h"

namespace dde::athena {

/// One interest-table entry (Sec. VI-B).
struct Interest {
  NodeId from;          ///< neighbor the request came from (invalid = local)
  QueryId query;
  NodeId origin;
  std::vector<LabelId> labels;
  bool accept_labels = false;
  int priority = 0;
  SimTime expires;
};

class Forwarder {
 public:
  /// An aggregation marker is leased for the request timeout, capped by a
  /// nonzero recovery_lease so that markers whose upstream copy could die
  /// with a crashed hop expire early.
  Forwarder(const Directory& directory, const AthenaConfig& config)
      : directory_(directory),
        lease_(config.recovery_lease > SimTime::zero()
                   ? std::min(config.recovery_lease, config.request_timeout)
                   : config.request_timeout) {}

  /// Bookmark request `r`, received from neighbor `from` (invalid for a
  /// local request), after dropping the expired interests on its source.
  void bookmark(NodeId from, const ObjectRequest& r, SimTime now) {
    auto& entries = interest_table_.find_or_insert(r.source.value());
    entries.remove_if([now](const Interest& e) { return e.expires <= now; });
    entries.push_back(Interest{from, r.query, r.origin, r.labels,
                               r.accept_labels, r.priority, now + kTtl});
  }

  /// Mark for serve_marked() each source with interests that covers a label
  /// of `values`, which were just put into the label cache.
  void mark_recheck(std::span<const decision::LabelValue> values) {
    for (const auto& v : values) {
      for (SourceId s : directory_.sources_for(v.label)) {
        if (interest_table_.find(s.value()) == nullptr) continue;
        const auto at = std::lower_bound(recheck_sources_.begin(),
                                         recheck_sources_.end(), s.value());
        if (at == recheck_sources_.end() || *at != s.value()) {
          recheck_sources_.insert(at, s.value());
        }
      }
    }
  }

  /// The label-share serve walk: in ascending source id, drop each interest
  /// of a marked source that expired or that `serve(source, interest)`
  /// answered; then clear the marks. An interest was unservable when it was
  /// bookmarked or last re-checked, and only a later put of one of its
  /// labels can complete it. That put marks its source, which covers every
  /// label of its interests (checked before bookmarking).
  template <typename Serve>
  void serve_marked(SimTime now, Serve serve) {
    for (const std::uint64_t key : recheck_sources_) {
      auto* entries = interest_table_.find(key);
      if (entries == nullptr) continue;
      entries->remove_if([&](const Interest& e) {
        return e.expires <= now || serve(SourceId{key}, e);
      });
    }
    recheck_sources_.clear();
  }

  /// An object for `source` arrived: drop its aggregation marker and hand
  /// over the interests waiting on it.
  [[nodiscard]] SmallVec<Interest, 1> take(SourceId source) {
    forwarded_.erase(source.value());
    SmallVec<Interest, 1> consumers;
    if (auto* entries = interest_table_.find(source.value())) {
      consumers = std::move(*entries);
      interest_table_.erase(source.value());
    }
    return consumers;
  }

  void unmark(SourceId source) { forwarded_.erase(source.value()); }

  /// True if an upstream request for `source` is in flight; otherwise
  /// record one, leased from `now`.
  bool aggregate(SourceId source, SimTime now) {
    SimTime& lease_until = forwarded_.find_or_insert(source.value());
    if (lease_until > now) return true;
    lease_until = now + lease_;
    return false;
  }

  /// In ascending source order, erase each marker `routed_via(source)`
  /// selects and `reissue` the first live interest waiting on its source.
  /// Returns the number of markers erased.
  template <typename Pred, typename Reissue>
  std::uint64_t purge_markers(SimTime now, Pred routed_via, Reissue reissue) {
    std::uint64_t purged = 0;
    for (const std::uint64_t key : forwarded_.sorted_keys()) {
      if (!routed_via(SourceId{key}) || !forwarded_.erase(key)) continue;
      ++purged;
      const auto* entries = interest_table_.find(key);
      if (entries == nullptr) continue;
      const auto live = std::find_if(
          entries->begin(), entries->end(),
          [now](const Interest& e) { return e.expires > now; });
      if (live != entries->end()) reissue(SourceId{key}, *live);
    }
    return purged;
  }

  /// Drop every expired interest, emptied source list and expired marker.
  void sweep(SimTime now) {
    interest_table_.erase_if(
        [now](std::uint64_t, SmallVec<Interest, 1>& entries) {
          entries.remove_if(
              [now](const Interest& e) { return e.expires <= now; });
          return entries.empty();
        });
    forwarded_.erase_if([now](std::uint64_t, SimTime t) { return t <= now; });
    // Expensive interest-table sweep (DDE_INVARIANTS builds only): GC must
    // leave no empty per-source list and no expired entry behind.
    DDE_INVARIANT(
        ([&] {
          bool ok = true;
          interest_table_.for_each(
              [&](std::uint64_t, const SmallVec<Interest, 1>& entries) {
                if (entries.empty()) ok = false;
                for (const Interest& e : entries) {
                  if (e.expires <= now) ok = false;
                }
              });
          return ok;
        }()),
        "Forwarder::sweep: interest table retained an empty list or expired "
        "entry");
  }

  void clear() {
    interest_table_.clear();
    recheck_sources_.clear();
    forwarded_.clear();
  }
  /// Whether sweep() has nothing to collect.
  [[nodiscard]] bool empty() const noexcept {
    return interest_table_.empty() && forwarded_.empty();
  }

  [[nodiscard]] std::size_t interest_entries() const {
    std::size_t n = 0;
    interest_table_.for_each(
        [&n](std::uint64_t, const auto& entries) { n += entries.size(); });
    return n;
  }
  [[nodiscard]] std::size_t forwarded_entries() const noexcept {
    return forwarded_.size();
  }

 private:
  static constexpr SimTime kTtl = SimTime::seconds(120);  ///< interest expiry

  const Directory& directory_;
  SimTime lease_;
  /// source.value() → interests waiting on that source.
  FlatU64Map<SmallVec<Interest, 1>> interest_table_;
  /// source.value() keys, ascending and distinct, for serve_marked().
  std::vector<std::uint64_t> recheck_sources_;
  /// source.value() → lease expiry of the upstream request in flight.
  FlatU64Map<SimTime> forwarded_;
};

}  // namespace dde::athena
