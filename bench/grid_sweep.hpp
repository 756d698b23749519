#pragma once
// Shared engine for the paper's §4 knowledge-base construction (Fig. 3 and
// Table 1): for every (node count, edge probability, weighting) graph
// instance, sweep QAOA over the (p, rhobeg) grid and score each case
// against the GW average of 30 slicings.

#include <cstdint>
#include <string>
#include <vector>

namespace qq::bench {

struct SweepConfig {
  std::vector<int> node_counts;
  std::vector<double> edge_probs;
  std::vector<int> layer_grid;       ///< p values (paper: 3..8)
  std::vector<double> rhobeg_grid;   ///< paper: 0.1..0.5
  /// Registry spec of the classical reference each QAOA grid point is
  /// scored against (see solver/registry.hpp). Scored on its
  /// "average_value" metric when the backend reports one (GW's
  /// average-of-slicings, the paper's statistic), its best cut otherwise.
  std::string classical_spec = "gw";
  std::uint64_t seed = 1;
  /// Iteration budget per QAOA run; 0 = paper schedule (linear in p).
  int max_iterations = 0;
  /// Drive COBYLA with the shot-estimated objective (paper: 4096 shots per
  /// circuit execution). This is what keeps QAOA imperfect and produces the
  /// fractional win proportions of Fig. 3; the exact-expectation objective
  /// saturates every cell at small qubit counts.
  bool shot_based_objective = true;
  int shots = 4096;
};

struct SweepResult {
  // Indexing: [weighted][node_idx][prob_idx], proportions over grid points.
  // weighted: 0 = unit weights, 1 = U[0,1) weights.
  std::vector<std::vector<std::vector<double>>> win_proportion;
  std::vector<std::vector<std::vector<double>>> near_proportion;  // [95,100)%
  // Indexing: [weighted][rhobeg_idx][layer_idx], proportions over graphs.
  std::vector<std::vector<std::vector<double>>> grid_win_proportion;
  int graphs_evaluated = 0;
  int qaoa_runs = 0;
};

/// Runs the full sweep, parallelized across graph instances.
SweepResult run_grid_sweep(const SweepConfig& config);

}  // namespace qq::bench
