// Annotated-synchronization shim (common/thread_annotations.h +
// common/mutex.h): the portability contract is that this TU compiles and
// behaves identically under GCC (macros expand to nothing) and under clang
// (macros expand to the -Wthread-safety capability attributes, checked with
// -Werror by the CI lint job). The behavioral tests pin that the wrappers
// really forward to std::mutex — mutual exclusion, try_lock contention,
// condition_variable_any interop — so the annotations stay zero-overhead
// decoration, never semantics.
#include "common/mutex.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace dde {
namespace {

TEST(Mutex, ProvidesMutualExclusion) {
  common::Mutex mu;
  long counter = 0;
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        const common::MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, 4 * 10000);
}

TEST(Mutex, TryLockFailsWhileHeldAndSucceedsAfterUnlock) {
  common::Mutex mu;
  mu.lock();
  // Contended try_lock must fail from another thread (same-thread try_lock
  // on a non-recursive mutex is undefined, so probe from a helper).
  bool acquired = true;
  std::thread probe([&] { acquired = mu.try_lock(); });
  probe.join();
  EXPECT_FALSE(acquired);
  mu.unlock();
  std::thread probe2([&] {
    acquired = mu.try_lock();
    if (acquired) mu.unlock();
  });
  probe2.join();
  EXPECT_TRUE(acquired);
}

TEST(Mutex, ConditionVariableAnyWaitsOnAnnotatedMutex) {
  // Mutex satisfies BasicLockable, so condition_variable_any can block on
  // it directly; nothing in src/ waits on a condition variable today, and
  // this pins that the wrapper stays usable for one.
  common::Mutex mu;
  std::condition_variable_any cv;
  bool ready = false;
  std::thread signaler([&] {
    const common::MutexLock lock(&mu);
    ready = true;
    cv.notify_one();
  });
  {
    const common::MutexLock lock(&mu);
    cv.wait(mu, [&]() DDE_REQUIRES(mu) { return ready; });
    EXPECT_TRUE(ready);
  }
  signaler.join();
}

TEST(SingleOwner, IsZeroSizeAndAssertHeldIsANoOp) {
  // The confinement capability must cost nothing: empty type, and
  // assert_held() is callable anywhere without acquiring anything.
  EXPECT_EQ(sizeof(common::SingleOwner), 1u);  // empty class, no members
  const common::SingleOwner owner;
  owner.assert_held();
  owner.assert_held();  // idempotent, no state
}

// Guarded-member usage pattern: compiles under both toolchains and, under
// clang -Wthread-safety, the assert_held() claims make the accesses legal.
class Confined {
 public:
  void bump() {
    owner_.assert_held();
    ++value_;
  }
  [[nodiscard]] int value() const {
    owner_.assert_held();
    return value_;
  }

 private:
  common::SingleOwner owner_;
  int value_ DDE_GUARDED_BY(owner_) = 0;
};

TEST(SingleOwner, GuardedMemberPatternBehavesNormally) {
  Confined c;
  c.bump();
  c.bump();
  EXPECT_EQ(c.value(), 2);
}

}  // namespace
}  // namespace dde
