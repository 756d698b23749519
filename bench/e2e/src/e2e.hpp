#pragma once
// Shared types of the end-to-end benchmark driver (README.md): the run
// configuration, the report a workload returns, and the fixed metric
// tables BENCHMARK.json names.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

inline constexpr std::uint64_t kDefaultSeed = 1;

struct Config {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 15.0;
  bool traced = false;
  /// Reduced sizes so that all four workloads finish in about 15 s.
  bool smoke = false;
  /// Golden sum-of-cuts table; empty skips that check.
  std::string golden_path;
  /// Directory for the traced run's Chrome trace files.
  std::string trace_dir;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (untraced run), in BENCHMARK.json order.
extern const std::vector<MetricSpec> kEndToEnd;
/// Per-layer metrics (traced run), in BENCHMARK.json order.
extern const std::vector<MetricSpec> kPerLayer;

/// What one workload run returns. Metrics are filled by name and must all
/// come from the table of the run's mode; a layer a workload never enters
/// reads 0.
struct Report {
  bool correct = true;
  std::vector<std::string> failures;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      failures.push_back(what);
    }
  }
  void note(const std::string& line) { notes.push_back(line); }
};

Report run_fig4_er500(const Config& config);
Report run_pp16_r16(const Config& config);
Report run_er1000_warm(const Config& config);
Report run_service_openloop(const Config& config);

}  // namespace e2e
