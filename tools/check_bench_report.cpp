// Schema checker for BENCH_*.json reports (see src/obs/bench_report.h for
// the schema). CI runs it after each bench to catch silent report drift:
//
//   ./tools/check_bench_report BENCH_micro_core.json [more.json ...]
//
// Exit 0 when every file parses and validates; 1 otherwise, with one
// diagnostic line per bad file. With --require-metric NAME (repeatable),
// every scheme in every file must contain that metric or histogram. With
// --require-metric-in SCHEME NAME (repeatable), every file must contain
// scheme SCHEME, and it must contain that metric or histogram — for reports
// whose schemes carry different metric sets. With
// --require-positive NAME (repeatable), at least one scheme must contain
// metric NAME and every scheme that does must report mean > 0 — the guard
// for measured quantities (events/sec, peak RSS) that parse fine as zero
// when the measurement silently broke.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/bench_report.h"
#include "obs/json.h"

namespace {

using dde::obs::json::Value;

bool scheme_has(const Value& scheme, const std::string& name) {
  for (const char* section : {"metrics", "histograms"}) {
    const Value* sec = scheme.find(section);
    if (sec != nullptr && sec->find(name) != nullptr) return true;
  }
  return false;
}

/// events/sec-style guard: `name` must appear as a metric in >= 1 scheme,
/// and every appearance must have mean > 0.
bool check_positive(const std::string& path, const Value& schemes,
                    const std::string& name) {
  bool seen = false;
  for (const auto& [scheme, entry] : schemes.as_object()) {
    const Value* metrics = entry.find("metrics");
    const Value* metric =
        metrics != nullptr ? metrics->find(name) : nullptr;
    if (metric == nullptr) continue;
    seen = true;
    const double mean = metric->find("mean")->as_number();
    if (!(mean > 0.0)) {
      std::fprintf(stderr, "%s: schemes.%s.metrics.%s: mean %g is not > 0\n",
                   path.c_str(), scheme.c_str(), name.c_str(), mean);
      return false;
    }
  }
  if (!seen) {
    std::fprintf(stderr, "%s: no scheme contains required-positive \"%s\"\n",
                 path.c_str(), name.c_str());
    return false;
  }
  return true;
}

bool check_file(
    const std::string& path, const std::vector<std::string>& required,
    const std::vector<std::pair<std::string, std::string>>& required_in,
    const std::vector<std::string>& positive) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "%s: cannot open\n", path.c_str());
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();

  std::string error;
  const Value report = Value::parse(buf.str(), &error);
  if (!error.empty()) {
    std::fprintf(stderr, "%s: JSON parse error: %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  if (!dde::obs::validate_bench_report(report, &error)) {
    std::fprintf(stderr, "%s: schema error: %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  for (const auto& [scheme, entry] : report.find("schemes")->as_object()) {
    for (const std::string& name : required) {
      if (!scheme_has(entry, name)) {
        std::fprintf(stderr, "%s: schemes.%s: missing required \"%s\"\n",
                     path.c_str(), scheme.c_str(), name.c_str());
        return false;
      }
    }
  }
  for (const auto& [scheme, name] : required_in) {
    const Value* entry = report.find("schemes")->find(scheme);
    if (entry == nullptr || !scheme_has(*entry, name)) {
      std::fprintf(stderr, "%s: schemes.%s: missing required \"%s\"%s\n",
                   path.c_str(), scheme.c_str(), name.c_str(),
                   entry == nullptr ? " (no such scheme)" : "");
      return false;
    }
  }
  for (const std::string& name : positive) {
    if (!check_positive(path, *report.find("schemes"), name)) return false;
  }
  std::size_t schemes = report.find("schemes")->as_object().size();
  std::printf("%s: OK (%zu scheme%s)\n", path.c_str(), schemes,
              schemes == 1 ? "" : "s");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  std::vector<std::string> required;
  std::vector<std::pair<std::string, std::string>> required_in;
  std::vector<std::string> positive;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--require-metric" && i + 1 < argc) {
      required.emplace_back(argv[++i]);
    } else if (arg == "--require-metric-in" && i + 2 < argc) {
      required_in.emplace_back(argv[i + 1], argv[i + 2]);
      i += 2;
    } else if (arg == "--require-positive" && i + 1 < argc) {
      positive.emplace_back(argv[++i]);
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr,
                 "usage: check_bench_report [--require-metric NAME]... "
                 "[--require-metric-in SCHEME NAME]... "
                 "[--require-positive NAME]... BENCH_*.json...\n");
    return 1;
  }
  bool ok = true;
  for (const std::string& f : files) {
    if (!check_file(f, required, required_in, positive)) ok = false;
  }
  return ok ? 0 : 1;
}
