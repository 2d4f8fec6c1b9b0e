#include "harness/parallel_runner.h"

#include <cstdlib>

namespace dde::harness {

std::size_t hardware_jobs() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t env_jobs() noexcept {
  const char* raw = std::getenv("DDE_BENCH_JOBS");
  if (raw == nullptr || *raw == '\0') return 0;
  char* end = nullptr;
  const long value = std::strtol(raw, &end, 10);
  if (end == raw || *end != '\0' || value <= 0) return 0;
  return static_cast<std::size_t>(value);
}

std::size_t job_count(std::size_t requested) noexcept {
  if (requested > 0) return requested;
  const std::size_t env = env_jobs();
  if (env > 0) return env;
  return hardware_jobs();
}

}  // namespace dde::harness
