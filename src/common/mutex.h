// Annotated synchronization primitives for the surfaces PDES will share.
//
// libstdc++'s std::mutex carries no clang capability attributes, so code
// locking it is invisible to -Wthread-safety. Mutex wraps std::mutex with
// the annotations (zero overhead: every method is a forwarding inline), and
// MutexLock is the RAII guard the analysis can follow. Mutex satisfies
// BasicLockable, so the standard's generic waits and guards accept it.
//
// SingleOwner is the other ownership story: state that is never locked but
// confined to one owning thread at a time (per-shard simulators, metric
// registries, trace sinks — PR 4's design, and the PDES plan). It is a
// zero-size capability with no acquire; methods of the owning class mark
// their access with owner_.assert_held(), which tells the analysis "the
// caller's confinement makes this safe" while costing nothing. When the
// PDES refactor introduces real hand-off points, those asserts become the
// checklist of sites that must acquire the shard capability for real.
#pragma once

#include <mutex>

#include "common/thread_annotations.h"

namespace dde::common {

/// std::mutex with clang capability annotations. Zero-overhead forwarding.
class DDE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() DDE_ACQUIRE() { mu_.lock(); }
  void unlock() DDE_RELEASE() { mu_.unlock(); }
  [[nodiscard]] bool try_lock() DDE_TRY_ACQUIRE(true) {
    return mu_.try_lock();
  }

 private:
  std::mutex mu_;
};

/// RAII lock the thread-safety analysis understands.
class DDE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) DDE_ACQUIRE(mu) : mu_(mu) { mu_->lock(); }
  ~MutexLock() DDE_RELEASE() { mu_->unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// Zero-size capability for thread-confined (not locked) state. Members
/// declared DDE_GUARDED_BY(owner_) may only be touched by code that holds
/// the capability; assert_held() claims it at zero cost on behalf of the
/// confining caller. See the header comment for when to use this instead
/// of a Mutex.
class DDE_CAPABILITY("owner") SingleOwner {
 public:
  void assert_held() const noexcept DDE_ASSERT_CAPABILITY() {}
};

}  // namespace dde::common
