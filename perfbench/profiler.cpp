#include "profiler.h"

#include <cxxabi.h>
#include <elf.h>
#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <time.h>
#include <ucontext.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string_view>
#include <vector>

namespace perfbench {
namespace {

constexpr int kMaxDepth = 16;
constexpr std::size_t kMaxSamples = std::size_t{1} << 17;
constexpr long kIntervalUs = 500;
/// Stack words searched for a return address when a sample lands in a
/// shared library.
constexpr int kScanWords = 64;

struct Sample {
  std::array<std::uintptr_t, kMaxDepth> pc;
  int depth;
};

// Shared with the signal handler, which only appends while the timer runs.
Sample* g_samples = nullptr;
std::atomic<std::size_t> g_count{0};
std::uintptr_t g_stack_top = 0;
/// The executable's load bias and code segment.
std::uintptr_t g_load_bias = 0;
std::uintptr_t g_text_begin = 0;
std::uintptr_t g_text_end = 0;

bool in_text(std::uintptr_t address) {
  return address >= g_text_begin && address < g_text_end;
}

void on_sigprof(int /*signo*/, siginfo_t* /*info*/, void* context) {
  const std::size_t n = g_count.load(std::memory_order_relaxed);
  if (g_samples == nullptr || n >= kMaxSamples) return;
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  const auto sp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
  auto fp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
#elif defined(__aarch64__)
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
  const auto sp = static_cast<std::uintptr_t>(uc->uc_mcontext.sp);
  auto fp = static_cast<std::uintptr_t>(uc->uc_mcontext.regs[29]);
#else
#error "perfbench profiler: unsupported architecture"
#endif
  Sample& s = g_samples[n];
  s.pc[0] = pc;
  int depth = 1;
  if (!in_text(pc)) {
    // Interrupted in a shared library (libc, libstdc++), built without
    // frame pointers: take the nearest return address into the executable
    // on the stack as the caller.
    const auto* word = reinterpret_cast<const std::uintptr_t*>(sp);
    for (int i = 0; i < kScanWords && sp + (i + 1) * sizeof(std::uintptr_t) <=
                                          g_stack_top;
         ++i) {
      if (in_text(word[i])) {
        s.pc[depth++] = word[i] - 1;
        break;
      }
    }
  }
  // A frame record is {caller's frame pointer, return address} on both
  // ABIs. Only follow records that lie on the live part of this stack and
  // move toward its top, so a frame pointer that libc code reused as a
  // general register ends the walk instead of faulting.
  constexpr std::uintptr_t kRecord = 2 * sizeof(std::uintptr_t);
  while (depth < kMaxDepth && fp >= sp && fp + kRecord <= g_stack_top &&
         fp % alignof(std::uintptr_t) == 0) {
    const auto* record = reinterpret_cast<const std::uintptr_t*>(fp);
    if (record[1] == 0) break;
    s.pc[depth++] = record[1] - 1;  // inside the call instruction
    if (record[0] <= fp) break;
    fp = record[0];
  }
  s.depth = depth;
  g_count.store(n + 1, std::memory_order_relaxed);
}

timer_t g_timer{};

void arm_timer(long interval_us) {
  itimerspec spec{};
  spec.it_interval.tv_nsec = interval_us * 1000;
  spec.it_value.tv_nsec = interval_us * 1000;
  timer_settime(g_timer, 0, &spec, nullptr);
}

int find_main_program(dl_phdr_info* info, std::size_t /*size*/,
                      void* /*data*/) {
  g_load_bias = info->dlpi_addr;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const auto& ph = info->dlpi_phdr[i];
    if (ph.p_type == PT_LOAD && (ph.p_flags & PF_X) != 0) {
      g_text_begin = info->dlpi_addr + ph.p_vaddr;
      g_text_end = g_text_begin + ph.p_memsz;
    }
  }
  return 1;  // the first object listed is the executable itself
}

struct FnSymbol {
  std::uintptr_t begin = 0;
  std::uintptr_t end = 0;
  std::string mangled;
};

/// Function symbols of the running executable, sorted by address.
std::vector<FnSymbol> read_function_symbols() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  const auto read_at = [&in](std::uint64_t offset, void* dst,
                             std::size_t len) {
    in.seekg(static_cast<std::streamoff>(offset));
    in.read(static_cast<char*>(dst), static_cast<std::streamsize>(len));
    return static_cast<bool>(in);
  };
  Elf64_Ehdr header{};
  if (!read_at(0, &header, sizeof header) ||
      std::memcmp(header.e_ident, ELFMAG, SELFMAG) != 0 ||
      header.e_ident[EI_CLASS] != ELFCLASS64 ||
      header.e_shentsize != sizeof(Elf64_Shdr)) {
    return {};
  }
  std::vector<Elf64_Shdr> sections(header.e_shnum);
  if (!read_at(header.e_shoff, sections.data(),
               sections.size() * sizeof(Elf64_Shdr))) {
    return {};
  }
  std::vector<FnSymbol> symbols;
  for (const Elf64_Shdr& section : sections) {
    if (section.sh_type != SHT_SYMTAB ||
        section.sh_entsize != sizeof(Elf64_Sym) ||
        section.sh_link >= sections.size()) {
      continue;
    }
    const Elf64_Shdr& names = sections[section.sh_link];
    std::vector<Elf64_Sym> entries(section.sh_size / sizeof(Elf64_Sym));
    std::string strtab(names.sh_size, '\0');
    if (!read_at(section.sh_offset, entries.data(),
                 entries.size() * sizeof(Elf64_Sym)) ||
        !read_at(names.sh_offset, strtab.data(), strtab.size())) {
      return {};
    }
    for (const Elf64_Sym& sym : entries) {
      if (ELF64_ST_TYPE(sym.st_info) != STT_FUNC || sym.st_size == 0 ||
          sym.st_value == 0 || sym.st_name >= strtab.size()) {
        continue;
      }
      symbols.push_back({g_load_bias + sym.st_value,
                         g_load_bias + sym.st_value + sym.st_size,
                         std::string(strtab.c_str() + sym.st_name)});
    }
  }
  std::sort(symbols.begin(), symbols.end(),
            [](const FnSymbol& a, const FnSymbol& b) {
              return a.begin < b.begin;
            });
  return symbols;
}

/// The qualified name of a demangled function: drops a leading return type
/// (template functions carry one) and the parameter list.
std::string_view qualified_name(std::string_view name) {
  int depth = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    if (c == '<') {
      ++depth;
    } else if (c == '>') {
      depth -= depth > 0 ? 1 : 0;
    } else if (depth == 0 && c == ' ') {
      start = i + 1;
    } else if (depth == 0 && c == '(') {
      return name.substr(start, i - start);
    }
  }
  return name.substr(start);
}

/// Simulator namespaces reported as their own layer; other dde:: code is
/// "common".
constexpr std::string_view kModules[] = {
    "athena", "cache",  "coverage", "decision", "des",      "fault",
    "fusion", "harness", "naming",  "net",      "obs",      "pubsub",
    "scenario", "sched", "workflow", "world"};

/// Layer of one mangled function symbol, or "" for code outside the
/// simulator (standard library, libc, the benchmark itself).
std::string layer_of(const std::string& mangled) {
  int status = 0;
  const std::unique_ptr<char, decltype(&std::free)> demangled(
      abi::__cxa_demangle(mangled.c_str(), nullptr, nullptr, &status),
      &std::free);
  if (status != 0 || demangled == nullptr) return {};
  std::string_view q = qualified_name(demangled.get());
  if (!q.starts_with("dde::")) {
    // Standard-library thunks that run a simulator lambda (std::function
    // invokers, sort comparators) are charged to the lambda's owner.
    const std::size_t owner = q.find("dde::");
    if (q.find("{lambda") == std::string_view::npos ||
        owner == std::string_view::npos) {
      return {};
    }
    q.remove_prefix(owner);
  }
  q.remove_prefix(5);
  if (q.starts_with("athena::Directory::")) return "directory";
  for (const std::string_view module : kModules) {
    if (q.starts_with(module) && q.substr(module.size()).starts_with("::")) {
      return std::string(module);
    }
  }
  return "common";
}

}  // namespace

Profiler::Profiler() {
  g_samples = new Sample[kMaxSamples];
  g_count.store(0);
  pthread_attr_t attr;
  void* base = nullptr;
  std::size_t size = 0;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    pthread_attr_getstack(&attr, &base, &size);
    pthread_attr_destroy(&attr);
  }
  g_stack_top = reinterpret_cast<std::uintptr_t>(base) + size;
  dl_iterate_phdr(find_main_program, nullptr);

  struct sigaction action {};
  action.sa_sigaction = on_sigprof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, nullptr);

  // A monotonic-clock timer: CPU-time timers only fire on the scheduler
  // tick, which caps the sample rate far below kIntervalUs. Every episode
  // runs on this thread and keeps the CPU busy, so wall time is CPU time.
  sigevent event{};
  event.sigev_notify = SIGEV_SIGNAL;
  event.sigev_signo = SIGPROF;
  timer_create(CLOCK_MONOTONIC, &event, &g_timer);
}

Profiler::~Profiler() {
  stop();
  timer_delete(g_timer);
  // Ignore rather than default: SIGPROF's default action ends the process.
  signal(SIGPROF, SIG_IGN);
  delete[] g_samples;
  g_samples = nullptr;
}

void Profiler::start() { arm_timer(kIntervalUs); }

void Profiler::stop() { arm_timer(0); }

std::map<std::string, std::uint64_t> Profiler::layer_samples() const {
  const std::vector<FnSymbol> symbols = read_function_symbols();
  std::map<std::size_t, std::string> layer_by_symbol;
  const auto layer_at = [&](std::uintptr_t pc) -> const std::string* {
    auto it = std::upper_bound(
        symbols.begin(), symbols.end(), pc,
        [](std::uintptr_t p, const FnSymbol& s) { return p < s.begin; });
    if (it == symbols.begin()) return nullptr;
    --it;
    if (pc >= it->end) return nullptr;
    const auto index = static_cast<std::size_t>(it - symbols.begin());
    auto [slot, fresh] = layer_by_symbol.try_emplace(index);
    if (fresh) slot->second = layer_of(it->mangled);
    return &slot->second;
  };

  std::map<std::string, std::uint64_t> counts;
  const std::size_t n = std::min(g_count.load(), kMaxSamples);
  for (std::size_t i = 0; i < n; ++i) {
    const Sample& s = g_samples[i];
    const std::string* layer = nullptr;
    for (int d = 0; d < s.depth && layer == nullptr; ++d) {
      layer = layer_at(s.pc[d]);
      if (layer != nullptr && layer->empty()) layer = nullptr;
    }
    ++counts[layer != nullptr ? *layer : std::string("other")];
  }
  return counts;
}

}  // namespace perfbench
