// Periodic task helper on top of the DES kernel.
//
// Models normally-off sensors that, once activated, sample at a fixed
// period (Sec. IV-A of the paper), and any other recurring activity.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "common/contracts.h"
#include "common/sim_time.h"
#include "des/simulator.h"

namespace dde::des {

/// Repeatedly invokes a callback at a fixed period until stopped.
///
/// The callback receives the current tick index (0-based). Stopping from
/// within the callback is allowed.
///
/// The kernel cancels nothing, so stop() leaves the next tick queued and
/// bumps a generation count instead: each queued tick carries the
/// generation it was scheduled under and does nothing once that has moved
/// on. The queued tick holds `this`, so the task must outlive every run of
/// its simulator, as every AthenaNode timer relies on its node.
class PeriodicTask {
 public:
  using TickFn = std::function<void(std::uint64_t tick)>;

  PeriodicTask(Simulator& sim, SimTime period, TickFn fn)
      : sim_(sim), period_(period), fn_(std::move(fn)) {
    // A zero period would respawn the tick forever at one instant.
    DDE_CHECK(period_ > SimTime::zero(), "PeriodicTask: period must be > 0");
  }

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  /// Start ticking; the first tick fires after `initial_delay`.
  void start(SimTime initial_delay = SimTime::zero()) {
    if (running_) return;
    running_ = true;
    schedule(initial_delay);
  }

  /// Stop ticking. Idempotent.
  void stop() {
    if (!running_) return;
    running_ = false;
    ++generation_;
  }

  [[nodiscard]] bool running() const noexcept { return running_; }
  [[nodiscard]] std::uint64_t ticks() const noexcept { return count_; }

 private:
  void schedule(SimTime delay) {
    sim_.schedule_after(delay, [this, gen = generation_] {
      if (gen == generation_) tick();
    });
  }

  void tick() {
    const std::uint64_t index = count_++;
    schedule(period_);
    fn_(index);
  }

  Simulator& sim_;
  SimTime period_;
  TickFn fn_;
  std::uint64_t generation_ = 0;  ///< bumped by stop(); stale ticks skip
  bool running_ = false;
  std::uint64_t count_ = 0;
};

}  // namespace dde::des
