// Clang -Wthread-safety capability annotations, as portable no-op macros.
//
// The PDES refactor (ROADMAP: deterministic parallel simulation of one run)
// will touch simulator/net/athena state from several worker threads at
// once. These macros let the surfaces that will be shared declare their
// locking contract *now*, so clang's static thread-safety analysis — run by
// the CI lint job with -Wthread-safety -Werror — checks every new access
// against it. Under GCC (the bench container's toolchain) every macro
// expands to nothing: zero code, zero ABI difference.
//
// The vocabulary is the standard clang one (see "Thread Safety Analysis" in
// the clang docs; the shim follows the documented reference macros):
//
//   DDE_CAPABILITY(name)      this class IS a lock-like capability
//   DDE_SCOPED_CAPABILITY     RAII object that acquires in its constructor
//                             and releases in its destructor
//   DDE_GUARDED_BY(mu)        member may only be touched while holding mu
//   DDE_PT_GUARDED_BY(mu)     pointee may only be touched while holding mu
//   DDE_REQUIRES(mu...)       caller must already hold mu
//   DDE_ACQUIRE(mu...)        function acquires mu and does not release it
//   DDE_RELEASE(mu...)        function releases mu
//   DDE_TRY_ACQUIRE(ok, mu)   acquires mu iff the return value is `ok`
//   DDE_EXCLUDES(mu...)       caller must NOT hold mu (deadlock guard)
//   DDE_ASSERT_CAPABILITY(mu) runtime claim that mu is held (no-op body);
//                             the sanctioned anchor for single-owner state
//                             until real acquire points exist (see
//                             common/mutex.h SingleOwner)
//   DDE_RETURN_CAPABILITY(mu) function returns a reference to mu
//   DDE_NO_THREAD_SAFETY_ANALYSIS  opt a function out (audited uses only)
//
// docs/STATIC_ANALYSIS.md §4 records which surfaces carry annotations and
// why; tools/dde_lint's mutable-global pass enforces that no *unannotated*
// shared state exists for these to miss.
#pragma once

#if defined(__clang__)
#define DDE_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define DDE_THREAD_ANNOTATION__(x)  // no-op under GCC and others
#endif

#define DDE_CAPABILITY(x) DDE_THREAD_ANNOTATION__(capability(x))
#define DDE_SCOPED_CAPABILITY DDE_THREAD_ANNOTATION__(scoped_lockable)
#define DDE_GUARDED_BY(x) DDE_THREAD_ANNOTATION__(guarded_by(x))
#define DDE_PT_GUARDED_BY(x) DDE_THREAD_ANNOTATION__(pt_guarded_by(x))
#define DDE_REQUIRES(...) \
  DDE_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define DDE_ACQUIRE(...) \
  DDE_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define DDE_RELEASE(...) \
  DDE_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define DDE_TRY_ACQUIRE(...) \
  DDE_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
#define DDE_EXCLUDES(...) DDE_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))
#define DDE_ASSERT_CAPABILITY(...) \
  DDE_THREAD_ANNOTATION__(assert_capability(__VA_ARGS__))
#define DDE_RETURN_CAPABILITY(x) DDE_THREAD_ANNOTATION__(lock_returned(x))
#define DDE_NO_THREAD_SAFETY_ANALYSIS \
  DDE_THREAD_ANNOTATION__(no_thread_safety_analysis)
