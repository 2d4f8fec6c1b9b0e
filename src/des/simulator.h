// Discrete-event simulation kernel.
//
// This is the substrate that replaces the paper's EMANE emulator: all
// network, sensing, and protocol activity is driven by timestamped events
// executed in deterministic order. Ties are broken by insertion sequence so
// that a given seed always replays the same trajectory.
//
// The queue is a 4-ary slot heap (common/slot_heap.h) keyed by (time,
// insertion seq). It executes the exact (time, insertion-seq) total order
// of the original std::priority_queue kernel: tests/test_event_queue_equiv.cpp
// pins the two trajectories byte-identical on tie, clamp, spread and burst
// patterns.
//
// Nothing is cancelled. A scheduled callback always runs; a timer whose
// owner may have moved on checks the owner's state when it fires (the
// protocol's deadline and retry watchdogs, its prefetch pump and GC, and
// PeriodicTask's generation count all do this), so the kernel needs no
// handles, tombstones or compaction.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "common/contracts.h"
#include "common/sim_time.h"
#include "common/slot_heap.h"

namespace dde::des {

/// A deterministic discrete-event simulator.
///
/// Events are std::function callbacks executed at their scheduled time in
/// (time, insertion-sequence) order. Callbacks may schedule further events.
class Simulator {
 public:
  /// A callable of at most 16 trivially copyable bytes is stored inline;
  /// anything larger costs a heap allocation per event (docs/PERFORMANCE.md).
  using Callback = std::function<void()>;

  /// Current simulated time. Monotonically non-decreasing across runs.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Number of events executed so far.
  [[nodiscard]] std::uint64_t executed_events() const noexcept { return executed_; }

  /// Number of events currently pending.
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return queue_.size();
  }

  /// Schedule `cb` to run at absolute time `when`. A `when` in the past
  /// (possible through accumulated floating-point arithmetic in callers) is
  /// clamped to now(): the simulation clock must never move backwards, and
  /// before this guard a release build would execute the event with
  /// now_ = ev.when, rewinding time for every later observer. Clamped
  /// events still run after everything already scheduled at now() (FIFO
  /// insertion-sequence order among same-time events).
  void schedule_at(SimTime when, Callback cb) {
    if (when < now_) when = now_;
    ++next_seq_;
    queue_.push(when.count(), next_seq_, std::move(cb));
  }

  /// Schedule `cb` to run `delay` after the current time. A negative delay
  /// (caller arithmetic gone wrong) is clamped to zero with a once-per-site
  /// notice: before this guard, now_ + delay silently landed in the past
  /// and schedule_at's clamp hid the bug without a trace.
  void schedule_after(SimTime delay, Callback cb) {
    DDE_CLAMP_OR(delay >= SimTime::zero(), delay = SimTime::zero(),
                 "schedule_after: negative delay clamped to zero");
    schedule_at(now_ + delay, std::move(cb));
  }

  /// Run until the event queue drains or simulated time would exceed
  /// `until`. Events scheduled exactly at `until` are executed.
  /// Returns the number of events executed by this call.
  std::uint64_t run_until(SimTime until = SimTime::max()) {
    DDE_INVARIANT(queue_.ordered(), "Simulator: event queue lost heap order");
    std::uint64_t ran = 0;
    while (pop_one(until)) ++ran;
    if (queue_.empty() && now_ < until && until != SimTime::max()) {
      now_ = until;
    }
    return ran;
  }

 private:
  bool pop_one(SimTime until) {
    if (queue_.empty()) return false;
    const SimTime when = SimTime::micros(queue_.top().key);
    if (when > until) return false;
    // The clock must never move backwards: schedule_at clamps past-time
    // schedules, so a rewind here means heap-order corruption.
    DDE_CHECK(when >= now_, "Simulator: event queue lost time monotonicity");
    now_ = when;
    Callback cb = queue_.pop();
    ++executed_;
    cb();
    return true;
  }

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  SlotHeap<Callback> queue_;
};

}  // namespace dde::des
