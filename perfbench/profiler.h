// Sampling self-time profiler for the benchmark's traced runs.
//
// While started, a monotonic-clock timer interrupts the process every
// 500 us with SIGPROF; the signal handler records the interrupted program
// counter and walks the frame-pointer chain into a preallocated buffer. Afterwards each
// sample is charged to one simulator layer: the namespace of the innermost
// frame that belongs to the simulator (dde::<module>::, with
// dde::athena::Directory split out as "directory" and plain dde:: as
// "common"). Frames of the standard library and libc are skipped, so their
// cost lands on the simulator code that called them. Shared libraries keep
// no frame pointers, so a sample that lands in one takes its caller from
// the nearest return address into the executable on the stack. Samples
// with no simulator frame count as "other". Code inlined into a caller is
// charged to that caller, as with any symbol-based profiler.
//
// Symbols come from the executable's own ELF symbol table, so functions with
// internal linkage resolve too. Single-threaded use only: the benchmark runs
// every episode on the main thread.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

class Profiler {
 public:
  Profiler();
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  void start();
  void stop();

  /// Samples recorded so far per layer, "other" included.
  [[nodiscard]] std::map<std::string, std::uint64_t> layer_samples() const;
};

}  // namespace perfbench
