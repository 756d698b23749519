#pragma once
// Ground-truth-free invariant oracles for fuzzed scenarios.
//
// None of these need a known optimum; the domain supplies the checks:
//   recount        reported cut value == recount of the assignment (and the
//                  assignment is well-formed: n entries, each 0/1)
//   counts         per-kind solve counts match Solver::solve_counts(); for
//                  QAOA^2, sum(level num_parts) == subgraphs_total, levels
//                  ascend, components match connected_components, timings
//                  are finite and non-negative
//   determinism    solving twice at the same seed is bit-for-bit identical
//   relabel        solving a vertex-relabeled copy stays self-consistent:
//                  its recount holds on the relabeled graph AND the
//                  assignment mapped back through the permutation recounts
//                  to the same value on the original graph; the exact
//                  optimum value is additionally invariant
//   exact_bound    exact >= any heuristic (n <= exact_max_nodes)
//   cache_coherence  routing the solve through a SolveCache (default
//                  policy: warm starts off) is bit-for-bit identical to
//                  the uncached solve; a repeat of the same request HITS
//                  and stays bit-identical; a lookup of an isomorphic
//                  relabeled copy HITS and maps its cached assignment
//                  through the stored permutation to a valid cut of the
//                  same value
//   spec_guard     malformed specs throw std::invalid_argument, never
//                  anything else and never succeed (check_malformed_spec)
//
// Every violation found here is a real bug somewhere in qgraph / solver /
// qaoa2 / sched — there are no flaky oracles; tolerances scale with the
// graph's total absolute weight to absorb float association differences
// only.

#include <string>
#include <vector>

#include "fuzz/scenario.hpp"

namespace qq::fuzz {

struct Violation {
  /// Oracle label ("recount", "determinism", ...).
  std::string oracle;
  /// Human-readable diagnosis (expected vs got).
  std::string details;
};

struct OracleOptions {
  /// Run the exact-bound oracle only at or below this node count (the
  /// exact solver is O(2^n)).
  int exact_max_nodes = 16;
  bool check_determinism = true;
  bool check_relabel = true;
  /// Cache probes: cache-routed solves must equal uncached ones bit-for-bit
  /// and isomorphic hits must map back to valid assignments.
  bool check_cache_coherence = true;
};

/// Absolute tolerance used when comparing independently computed cut
/// values on `g`: 1e-9 scaled by the total absolute edge weight.
double cut_tolerance(const graph::Graph& g);

/// Run every applicable oracle on one scenario. Empty result == clean.
/// Never throws: solver/pipeline exceptions are themselves reported as
/// "solve_throws" violations.
std::vector<Violation> check_scenario(const Scenario& scenario,
                                      const OracleOptions& options = {});

/// The "must throw, never crash" probe: constructing `spec` must throw
/// std::invalid_argument. Returns a violation when it succeeds or throws
/// any other type.
std::vector<Violation> check_malformed_spec(const std::string& spec);

/// Render violations as an indented report block.
std::string format_violations(const std::vector<Violation>& violations);

}  // namespace qq::fuzz
