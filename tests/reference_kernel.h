// Frozen copy of the pre-ladder-queue DES kernel: std::priority_queue over
// full Event records plus an unordered_set pending-set for cancellation.
//
// NOT for production use — des::Simulator (the ladder-queue kernel) is the
// one engine the stack runs on. This copy exists so that
// tests/test_event_queue_equiv.cpp can pin the ladder queue byte-identical
// against the trajectory (and event counts) the old kernel produces.
// Behavior is frozen at PR 7 (clock-advance fix, past-time clamp, queue
// compaction) and must not be "improved": it is the baseline being compared
// against.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "common/contracts.h"
#include "common/sim_time.h"

namespace dde::des {

/// The old kernel, verbatim (handles are plain seq numbers).
class ReferenceSimulator {
 public:
  using Callback = std::function<void()>;
  using Handle = std::uint64_t;  ///< 0 = invalid

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] std::uint64_t executed_events() const noexcept {
    return executed_;
  }
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return pending_.size();
  }
  [[nodiscard]] std::size_t queued_events() const noexcept {
    return queue_.size();
  }

  Handle schedule_at(SimTime when, Callback cb) {
    if (when < now_) when = now_;
    const std::uint64_t seq = ++next_seq_;
    queue_.push(Event{when, seq, std::move(cb)});
    pending_.insert(seq);
    return seq;
  }

  Handle schedule_after(SimTime delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  bool cancel(Handle handle) {
    if (handle == 0) return false;
    if (pending_.erase(handle) == 0) return false;
    ++cancelled_in_queue_;
    maybe_compact();
    return true;
  }

  std::uint64_t run_until(SimTime until = SimTime::max()) {
    std::uint64_t ran = 0;
    while (pop_one(until)) ++ran;
    drain_cancelled_prefix();
    if (queue_.empty() && now_ < until && until != SimTime::max()) now_ = until;
    return ran;
  }

  bool step() { return pop_one(SimTime::max()); }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;  // FIFO among same-time events
    }
  };

  bool pop_one(SimTime until) {
    while (!queue_.empty()) {
      if (queue_.top().when > until) return false;
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      if (pending_.erase(ev.seq) == 0) {  // was cancelled
        --cancelled_in_queue_;
        continue;
      }
      DDE_CHECK(ev.when >= now_,
                "ReferenceSimulator: event queue lost time monotonicity");
      now_ = ev.when;
      ++executed_;
      ev.cb();
      return true;
    }
    return false;
  }

  void drain_cancelled_prefix() {
    while (!queue_.empty() && !pending_.contains(queue_.top().seq)) {
      queue_.pop();
      --cancelled_in_queue_;
    }
  }

  void maybe_compact() {
    if (cancelled_in_queue_ < 64 || cancelled_in_queue_ * 2 < queue_.size()) {
      return;
    }
    std::vector<Event> keep;
    keep.reserve(queue_.size() - cancelled_in_queue_);
    while (!queue_.empty()) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      if (pending_.contains(ev.seq)) keep.push_back(std::move(ev));
    }
    queue_ = decltype(queue_)(Later{}, std::move(keep));
    cancelled_in_queue_ = 0;
  }

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t cancelled_in_queue_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<std::uint64_t> pending_;
};

}  // namespace dde::des
