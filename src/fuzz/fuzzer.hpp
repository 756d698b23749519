#pragma once
// Fuzz campaign driver: iterate seeds, generate scenarios, run the oracle
// battery, probe malformed specs, shrink anything that fails, and emit
// reproducer artifacts. Time-bounded so CI can run it as a fixed-budget
// smoke pass (`fuzz_solve --seeds 500 --time-budget 120`).

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "fuzz/oracle.hpp"
#include "fuzz/reducer.hpp"
#include "fuzz/scenario.hpp"

namespace qq::fuzz {

struct FuzzOptions {
  /// First campaign seed; scenarios are make_scenario(seed_begin + i).
  std::uint64_t seed_begin = 0;
  /// Number of scenario seeds to try.
  int seeds = 500;
  /// Wall-clock cap in seconds; <= 0 means unbounded. The campaign stops
  /// early (time_exhausted) once exceeded, never mid-scenario.
  double wall_budget_seconds = 120.0;
  OracleOptions oracle;
  /// Number of malformed-spec probes interleaved per scenario seed.
  int malformed_per_seed = 2;
  /// Shrink failing scenarios before reporting them.
  bool reduce_failures = true;
  int reduce_max_checks = 160;
  /// When non-empty, write `case-<seed>.case` and `repro-<seed>.cpp` for
  /// every finding into this directory (created if missing).
  std::string artifact_dir;
  /// Log every scenario, not just findings.
  bool verbose = false;
};

struct Finding {
  Scenario scenario;                  ///< reduced (or original) failing case
  std::vector<Violation> violations;  ///< violations on `scenario`
  std::uint64_t campaign_seed = 0;    ///< seed that first exposed it
  bool shrunk = false;
};

struct FuzzReport {
  int scenarios_run = 0;
  int malformed_probes = 0;
  std::vector<Finding> findings;
  /// Scenario coverage: family name -> times drawn, spec head (leaf solver
  /// name or "best") -> times drawn.
  std::map<std::string, int> family_counts;
  std::map<std::string, int> spec_counts;
  double wall_seconds = 0.0;
  bool time_exhausted = false;

  bool clean() const { return findings.empty(); }
};

/// Run a campaign. Progress and findings go to `log` when non-null.
FuzzReport run_fuzz(const FuzzOptions& options, std::ostream* log = nullptr);

/// Replay one serialized case through the oracle battery (used by
/// `fuzz_solve --replay` and the committed-corpus ctest entries). Returns
/// the violations (empty == clean).
std::vector<Violation> replay_case(const std::string& path,
                                   const OracleOptions& options,
                                   std::ostream* log = nullptr);

/// One-line coverage/summary block for a finished campaign.
std::string summarize_report(const FuzzReport& report);

}  // namespace qq::fuzz
