// Frozen copy of the original DES kernel: std::priority_queue over full
// Event records.
//
// NOT for production use — des::Simulator (on common/slot_heap.h) is the
// one engine the stack runs on. This copy exists so that
// tests/test_event_queue_equiv.cpp can pin that kernel byte-identical
// against the trajectory (and event counts) the old kernel produces.
// Its ordering (the (when, seq) comparator, the past-time clamp, the clock
// advance once the queue drains) is frozen and must not be "improved": it
// is the baseline being compared against. The old kernel's cancellation
// (a pending set plus queue compaction) left with the simulator's, since
// nothing in the stack cancels an event.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/contracts.h"
#include "common/sim_time.h"

namespace dde::des {

/// The old kernel, verbatim apart from cancellation.
class ReferenceSimulator {
 public:
  using Callback = std::function<void()>;

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] std::uint64_t executed_events() const noexcept {
    return executed_;
  }
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return queue_.size();
  }

  void schedule_at(SimTime when, Callback cb) {
    if (when < now_) when = now_;
    const std::uint64_t seq = ++next_seq_;
    queue_.push(Event{when, seq, std::move(cb)});
  }

  void schedule_after(SimTime delay, Callback cb) {
    schedule_at(now_ + delay, std::move(cb));
  }

  std::uint64_t run_until(SimTime until = SimTime::max()) {
    std::uint64_t ran = 0;
    while (pop_one(until)) ++ran;
    if (queue_.empty() && now_ < until && until != SimTime::max()) now_ = until;
    return ran;
  }

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
    if (queue_.empty()) return false;
    if (queue_.top().when > until) return false;
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    DDE_CHECK(ev.when >= now_,
              "ReferenceSimulator: event queue lost time monotonicity");
    now_ = ev.when;
    ++executed_;
    ev.cb();
    return true;
  }

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace dde::des
