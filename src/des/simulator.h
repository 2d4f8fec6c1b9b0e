// Discrete-event simulation kernel.
//
// This is the substrate that replaces the paper's EMANE emulator: all
// network, sensing, and protocol activity is driven by timestamped events
// executed in deterministic order. Ties are broken by insertion sequence so
// that a given seed always replays the same trajectory.
//
// The queue is a 4-ary slot heap (common/slot_heap.h) keyed by (time,
// insertion seq), with tombstone-flag cancellation. It executes the exact
// (time, insertion-seq) total order of the original std::priority_queue
// kernel: tests/test_event_queue_equiv.cpp pins the two trajectories
// byte-identical on cancel/compact/tie stress patterns.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "common/contracts.h"
#include "common/sim_time.h"
#include "common/slot_heap.h"

namespace dde::des {

/// Handle used to cancel a scheduled event.
class EventHandle {
 public:
  EventHandle() noexcept = default;

  [[nodiscard]] bool valid() const noexcept { return seq_ != 0; }

 private:
  friend class Simulator;
  EventHandle(std::uint32_t slot, std::uint64_t seq) noexcept
      : slot_(slot), seq_(seq) {}
  std::uint32_t slot_ = 0;
  std::uint64_t seq_ = 0;  ///< unique per simulator; 0 names no event
};

/// A deterministic discrete-event simulator.
///
/// Events are std::function callbacks executed at their scheduled time in
/// (time, insertion-sequence) order. Callbacks may schedule further events.
class Simulator {
 public:
  using Callback = std::function<void()>;

  /// Current simulated time. Monotonically non-decreasing during run().
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Number of events executed so far.
  [[nodiscard]] std::uint64_t executed_events() const noexcept { return executed_; }

  /// Number of events currently pending (cancelled events excluded).
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return live_;
  }

  /// Raw queue occupancy, cancelled-but-not-yet-drained residue included.
  /// Observability hook: bounded by pending_events() plus a small compaction
  /// slack, so repeated cancel/schedule cycles cannot grow it unboundedly.
  [[nodiscard]] std::size_t queued_events() const noexcept {
    return queue_.size();
  }

  /// Schedule `cb` to run at absolute time `when`. A `when` in the past
  /// (possible through accumulated floating-point arithmetic in callers) is
  /// clamped to now(): the simulation clock must never move backwards, and
  /// before this guard a release build would execute the event with
  /// now_ = ev.when, rewinding time for every later observer. Clamped
  /// events still run after everything already scheduled at now() (FIFO
  /// insertion-sequence order among same-time events).
  EventHandle schedule_at(SimTime when, Callback cb) {
    if (when < now_) when = now_;
    ++next_seq_;
    ++live_;
    const std::uint32_t slot =
        queue_.push(when.count(), next_seq_, Event{std::move(cb), next_seq_});
    return EventHandle{slot, next_seq_};
  }

  /// Schedule `cb` to run `delay` after the current time. A negative delay
  /// (caller arithmetic gone wrong) is clamped to zero with a once-per-site
  /// notice: before this guard, now_ + delay silently landed in the past
  /// and schedule_at's clamp hid the bug without a trace.
  EventHandle schedule_after(SimTime delay, Callback cb) {
    DDE_CLAMP_OR(delay >= SimTime::zero(), delay = SimTime::zero(),
                 "schedule_after: negative delay clamped to zero");
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Cancel a previously scheduled event. Returns true if the event was
  /// still pending (it will not run); false if it already ran, was already
  /// cancelled, or the handle is invalid. O(1): the event is tombstoned in
  /// place and drained (or compacted) later.
  bool cancel(EventHandle handle) {
    if (!handle.valid() || handle.slot_ >= queue_.slot_count()) return false;
    Event& ev = queue_.slot(handle.slot_);
    if (ev.cancelled || ev.seq != handle.seq_) return false;
    ev.cancelled = true;
    ev.cb = nullptr;  // release captures eagerly
    --live_;
    ++tombstones_;
    maybe_compact();
    return true;
  }

  /// Run until the event queue drains or simulated time would exceed
  /// `until`. Events scheduled exactly at `until` are executed.
  /// Returns the number of events executed by this call.
  std::uint64_t run_until(SimTime until = SimTime::max()) {
    // Every queued event is live or tombstoned, and the heap is ordered.
    DDE_INVARIANT(queue_.ordered() && live_ + tombstones_ == queue_.size(),
                  "Simulator: event queue order or accounting desync");
    std::uint64_t ran = 0;
    while (pop_one(until)) ++ran;
    // pop_one() drained any tombstoned residue ahead of the first live
    // event (or the whole queue), so a queue holding no runnable work
    // counts as empty and must not pin the clock.
    if (live_ == 0 && now_ < until && until != SimTime::max()) {
      now_ = until;
    }
    return ran;
  }

  /// Run a single event if one is pending. Returns whether one ran.
  bool step() { return pop_one(SimTime::max()); }

 private:
  struct Event {
    Callback cb;
    std::uint64_t seq = 0;  ///< 0 once run, so stale handles miss
    bool cancelled = false;
  };

  bool pop_one(SimTime until) {
    // Tombstones ahead of the first live event are dropped as they surface.
    while (!queue_.empty() && queue_.slot(queue_.top().slot).cancelled) {
      queue_.pop();
      --tombstones_;
    }
    if (queue_.empty()) return false;
    const SimTime when = SimTime::micros(queue_.top().key);
    if (when > until) return false;
    // The clock must never move backwards: schedule_at clamps past-time
    // schedules, so a rewind here means heap-order corruption.
    DDE_CHECK(when >= now_, "Simulator: event queue lost time monotonicity");
    now_ = when;
    // The freed slot keeps the moved-from event: clear its seq so that a
    // stale handle never matches it.
    queue_.slot(queue_.top().slot).seq = 0;
    Event ev = queue_.pop();
    --live_;
    ++executed_;
    ev.cb();
    return true;
  }

  /// Drop the tombstones once they are at least 64 and half the queue:
  /// repeated cancel/schedule cycles (retry watchdogs, rearmed timers)
  /// would otherwise grow the queue without bound. Amortized O(1)/cancel.
  void maybe_compact() {
    if (tombstones_ < 64 || tombstones_ * 2 < queue_.size()) return;
    queue_.erase_if([](const Event& ev) { return ev.cancelled; });
    tombstones_ = 0;
  }

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  std::size_t tombstones_ = 0;
  SlotHeap<Event> queue_;
};

}  // namespace dde::des
