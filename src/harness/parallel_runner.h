// Parallel replication runner for the experiment harnesses.
//
// Every experiment binary runs a scheme × config × seed grid where each
// seed is an independent, deterministic des::Simulator run — embarrassingly
// parallel replication trials. This module spreads those trials across a
// few worker threads while keeping every published number bit-identical to
// the serial harness: workers only *compute* (each task owns its full
// simulation state — Simulator, Rng, TraceSink); all aggregation happens on
// the calling thread, in deterministic index (seed) order, after the
// workers finish. Text tables and BENCH_*.json are therefore byte-identical
// at any thread count.
//
// Environment knob:
//   DDE_BENCH_JOBS=<n>  worker threads for replication fan-out.
//                       1 = run inline on the caller (exact legacy path,
//                           no threads created);
//                       unset/0/invalid = hardware concurrency.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace dde::harness {

/// max(1, std::thread::hardware_concurrency()).
[[nodiscard]] std::size_t hardware_jobs() noexcept;

/// DDE_BENCH_JOBS parsed as a positive integer; 0 when unset or invalid.
[[nodiscard]] std::size_t env_jobs() noexcept;

/// Worker-count resolution used by run_indexed: an explicit `requested` > 0
/// wins, then DDE_BENCH_JOBS, then hardware concurrency. Never returns 0.
[[nodiscard]] std::size_t job_count(std::size_t requested = 0) noexcept;

/// Run `fn(0) … fn(n-1)`, each task independent, and return the results in
/// index order. With `jobs` (resolved via job_count) == 1 — or n <= 1 —
/// tasks run inline on the calling thread in index order: the exact legacy
/// serial path, no threads created. Otherwise min(jobs, n) threads each
/// claim the next unclaimed index until none is left, and the caller joins
/// them all. If any task threw, the exception of the lowest failing index
/// is rethrown, so the serial and parallel paths raise the same one.
/// Results are *computed* concurrently but *collected* in index order, so
/// any fold the caller performs over the returned vector is bit-identical
/// to folding inside a serial loop.
template <typename Fn>
auto run_indexed(std::size_t n, Fn&& fn, std::size_t jobs = 0)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  const std::size_t workers = job_count(jobs);
  std::vector<R> out;
  out.reserve(n);
  if (workers <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) out.push_back(fn(i));
    return out;
  }
  // Each index is claimed by exactly one thread, so slot i and error i
  // have a single writer; the joins publish them to this thread.
  std::vector<std::optional<R>> slots(n);
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  {
    const std::size_t thread_count = std::min(workers, n);
    std::vector<std::jthread> threads;
    threads.reserve(thread_count);
    for (std::size_t t = 0; t < thread_count; ++t) {
      threads.emplace_back([&] {
        for (std::size_t i = next++; i < n; i = next++) {
          try {
            slots[i].emplace(fn(i));
          } catch (...) {
            errors[i] = std::current_exception();
          }
        }
      });
    }
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

}  // namespace dde::harness
