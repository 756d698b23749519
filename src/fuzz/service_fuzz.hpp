#pragma once
// Service-layer fuzzing: seeded concurrent-request storms against a live
// SolveService — random tenant topologies, random request mixes (direct
// and decomposed, valid and invalid, with and without deadlines/budgets),
// random mid-flight cancellations from a concurrent thread, and a random
// teardown (drain vs shutdown_now). The cross-layer invariant oracles:
//
//   terminal_once   every submitted request settles in exactly one
//                   terminal state, and that state is stable once read
//   no_failure      specs are valid by construction, so kFailed leaks an
//                   internal error (the what() is reported)
//   typed_reject    requests built invalid/infeasible reject with exactly
//                   that reason; valid ones only ever reject as overloaded
//   recount         a completed request's cut recounts on its own graph
//   stats_balance   service counters equal the per-ticket tallies, and the
//                   engine's submitted == completed + cancelled with empty
//                   ready/in-flight gauges after the storm drains
//
// Timing decides WHICH branch each request takes (cancel lands while
// queued, running, or already settled) but never whether the oracles hold,
// so storms are safe to run under TSan and on loaded CI machines.

#include <cstdint>
#include <iosfwd>

#include "fuzz/oracle.hpp"

namespace qq::fuzz {

struct ServiceFuzzOptions {
  std::uint64_t seed_begin = 0;
  /// Storm rounds; each builds a fresh service from its own seed.
  int storms = 20;
  /// Wall-clock cap in seconds; <= 0 means unbounded. Stops early between
  /// storms, never mid-storm.
  double wall_budget_seconds = 60.0;
  bool verbose = false;
};

struct ServiceFuzzReport {
  int storms_run = 0;
  int requests_submitted = 0;
  int cancels_issued = 0;
  std::vector<Violation> violations;
  double wall_seconds = 0.0;
  bool time_exhausted = false;

  bool clean() const { return violations.empty(); }
};

/// Run `options.storms` storm rounds. Progress and violations go to `log`
/// when non-null. Violation details name the storm seed, so any finding
/// reproduces via --service --seed-begin <seed> --storms 1.
ServiceFuzzReport run_service_fuzz(const ServiceFuzzOptions& options,
                                   std::ostream* log = nullptr);

/// One-line summary block for a finished campaign.
std::string summarize_service_report(const ServiceFuzzReport& report);

}  // namespace qq::fuzz
