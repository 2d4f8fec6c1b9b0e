#include "harness/parallel_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "scenario/route_scenario.h"

namespace dde::harness {
namespace {

/// Scoped DDE_BENCH_JOBS override; restores the previous value on exit.
class ScopedEnvJobs {
 public:
  explicit ScopedEnvJobs(const char* value) {
    const char* old = std::getenv("DDE_BENCH_JOBS");
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    if (value == nullptr) {
      ::unsetenv("DDE_BENCH_JOBS");
    } else {
      ::setenv("DDE_BENCH_JOBS", value, 1);
    }
  }
  ~ScopedEnvJobs() {
    if (had_) {
      ::setenv("DDE_BENCH_JOBS", saved_.c_str(), 1);
    } else {
      ::unsetenv("DDE_BENCH_JOBS");
    }
  }

 private:
  std::string saved_;
  bool had_ = false;
};

TEST(JobCount, ExplicitRequestWinsOverEnv) {
  const ScopedEnvJobs env("7");
  EXPECT_EQ(job_count(3), 3u);
  EXPECT_EQ(job_count(1), 1u);
}

TEST(JobCount, EnvVariableParsed) {
  const ScopedEnvJobs env("4");
  EXPECT_EQ(env_jobs(), 4u);
  EXPECT_EQ(job_count(), 4u);
}

TEST(JobCount, InvalidEnvFallsBackToHardware) {
  for (const char* bad : {"abc", "0", "-3", "", "2x"}) {
    const ScopedEnvJobs env(bad);
    EXPECT_EQ(env_jobs(), 0u) << "DDE_BENCH_JOBS=" << bad;
    EXPECT_EQ(job_count(), hardware_jobs());
  }
}

TEST(JobCount, UnsetEnvFallsBackToHardware) {
  const ScopedEnvJobs env(nullptr);
  EXPECT_EQ(env_jobs(), 0u);
  EXPECT_EQ(job_count(), hardware_jobs());
  EXPECT_GE(job_count(), 1u);
}

TEST(RunIndexed, ReturnsResultsInIndexOrder) {
  const auto out = run_indexed(
      100, [](std::size_t i) { return i * i; }, 4);
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(RunIndexed, SerialAndParallelAgree) {
  auto fn = [](std::size_t i) { return 3 * i + 1; };
  EXPECT_EQ(run_indexed(37, fn, 1), run_indexed(37, fn, 4));
}

TEST(RunIndexed, HandlesZeroAndOneTask) {
  auto fn = [](std::size_t i) { return i; };
  EXPECT_TRUE(run_indexed(0, fn, 4).empty());
  const auto one = run_indexed(1, fn, 4);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 0u);
}

TEST(RunIndexed, MoveOnlyResults) {
  const auto out = run_indexed(
      8, [](std::size_t i) { return std::make_unique<std::size_t>(i); }, 4);
  ASSERT_EQ(out.size(), 8u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(*out[i], i);
}

TEST(RunIndexed, EveryIndexRunsExactlyOnce) {
  constexpr std::size_t kTasks = 1000;
  std::vector<std::atomic<int>> runs(kTasks);
  const auto out = run_indexed(
      kTasks,
      [&runs](std::size_t i) {
        runs[i].fetch_add(1);
        return i;
      },
      8);
  ASSERT_EQ(out.size(), kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "index " << i;
    EXPECT_EQ(out[i], i);
  }
}

// Whichever task fails first in wall-clock time, the caller sees the
// lowest failing index's exception, as the serial loop would raise it.
// Task 3 sleeps before it throws, so on the parallel path task 11 normally
// fails first.
TEST(RunIndexed, RethrowsLowestIndexFailure) {
  auto boom = [](std::size_t i) -> int {
    if (i == 3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      throw std::runtime_error("task 3 failed");
    }
    if (i == 11) throw std::logic_error("task 11 failed");
    return static_cast<int>(i);
  };
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    try {
      (void)run_indexed(16, boom, jobs);
      ADD_FAILURE() << "jobs=" << jobs << ": nothing thrown";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 3 failed") << "jobs=" << jobs;
    } catch (const std::logic_error& e) {
      ADD_FAILURE() << "jobs=" << jobs << ": got " << e.what();
    }
  }
}

/// A quick scenario configuration: small grid, few nodes, short horizon.
scenario::ScenarioConfig small_config() {
  scenario::ScenarioConfig cfg;
  cfg.grid_width = 5;
  cfg.grid_height = 5;
  cfg.node_count = 10;
  cfg.queries_per_node = 1;
  cfg.horizon = SimTime::seconds(120);
  return cfg;
}

void expect_stats_identical(const RunningStats& a, const RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

void expect_histograms_identical(const obs::Histogram& a,
                                 const obs::Histogram& b) {
  EXPECT_EQ(a.counts(), b.counts());
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum(), b.sum());
}

// The determinism contract of the whole harness: every aggregate the bench
// binaries publish is bit-identical at any worker count, because folding
// happens on the calling thread in seed order.
TEST(Determinism, RunCellBitIdenticalAcrossJobCounts) {
  const auto cfg = small_config();
  bench::Cell serial;
  {
    const ScopedEnvJobs env("1");
    serial = bench::run_cell(cfg, 4);
  }
  bench::Cell parallel;
  {
    const ScopedEnvJobs env("4");
    parallel = bench::run_cell(cfg, 4);
  }
  expect_stats_identical(serial.ratio, parallel.ratio);
  expect_stats_identical(serial.megabytes, parallel.megabytes);
  expect_stats_identical(serial.latency_s, parallel.latency_s);
  expect_stats_identical(serial.object_mb, parallel.object_mb);
  expect_stats_identical(serial.push_mb, parallel.push_mb);
  expect_stats_identical(serial.label_mb, parallel.label_mb);
  expect_stats_identical(serial.refetches, parallel.refetches);
  expect_stats_identical(serial.stale, parallel.stale);
  expect_histograms_identical(serial.telem.age_upon_decision_s,
                              parallel.telem.age_upon_decision_s);
  expect_histograms_identical(serial.telem.slack_at_decision_s,
                              parallel.telem.slack_at_decision_s);
  expect_histograms_identical(serial.telem.bytes_per_decision,
                              parallel.telem.bytes_per_decision);
}

// Repeated parallel runs are also stable against each other (no dependence
// on scheduling order).
TEST(Determinism, RepeatedParallelRunsIdentical) {
  const auto cfg = small_config();
  const ScopedEnvJobs env("3");
  const auto a = bench::run_cell(cfg, 3);
  const auto b = bench::run_cell(cfg, 3);
  expect_stats_identical(a.ratio, b.ratio);
  expect_stats_identical(a.megabytes, b.megabytes);
  expect_histograms_identical(a.telem.bytes_per_decision,
                              b.telem.bytes_per_decision);
}

}  // namespace
}  // namespace dde::harness
