#pragma once
// Replays of the layers the timed decorator cannot see, through their
// public functions and on the workload's own inputs (README "Per-layer
// metrics"). Each replay runs solo, after the timed passes.

#include <cstdint>
#include <vector>

#include "e2e.hpp"
#include "maxcut/cut.hpp"
#include "qaoa/qaoa.hpp"
#include "qaoa2/qaoa2.hpp"
#include "qgraph/graph.hpp"
#include "trace.hpp"

namespace e2e {

/// Level 0 of a QAOA^2 solve, replayed as the streaming pipeline runs it:
/// shard by component, partition each component, extract the parts, and
/// build the merge graph / apply the flips from the solve's assignment.
struct Level0Replay {
  double component_s = 0.0;  ///< connected components + component extract
  double partition_s = 0.0;  ///< partition_max_size
  double extract_s = 0.0;    ///< induced_batch of the parts
  double merge_s = 0.0;      ///< build_merge_graph + apply_flips
  /// Summed over components as Qaoa2Result::level_stats[0] is.
  qq::qaoa2::LevelStats stats;
  std::vector<qq::graph::Graph> leaves;  ///< the level-0 part graphs
};

/// Median over `reps` repetitions of each phase. `assignment` is the
/// solve's final cut of `g`; the merge graph is built from its restriction
/// to each part (the same edges the pipeline walks).
Level0Replay replay_level0(const qq::graph::Graph& g,
                           const qq::qaoa2::Qaoa2Options& options,
                           const qq::maxcut::Assignment& assignment, int reps);

/// True when the replayed level-0 partition matches the solve's own stats.
bool same_level0(const qq::qaoa2::LevelStats& replayed,
                 const qq::qaoa2::LevelStats& solved);

struct LeafReplay {
  double cut_table_s = 0.0;  ///< QaoaSolver construction
  double optimize_s = 0.0;   ///< QaoaSolver::optimize
  int evaluations = 0;
  /// The solo solve reproduced the recorded cut bit for bit.
  bool identical = false;
};

/// One leaf solved alone with the sub role's QAOA configuration.
LeafReplay replay_leaf(const qq::graph::Graph& g, qq::qaoa::QaoaOptions options,
                       std::uint64_t seed,
                       const qq::maxcut::CutResult& recorded);

/// Seconds per objective evaluation of `g` under `options`: one flat
/// evaluation, or one lane's share of a lockstep batched sweep when the
/// optimizer batches restarts.
double eval_seconds(const qq::graph::Graph& g,
                    const qq::qaoa::QaoaOptions& options);

struct KernelReplay {
  double cost_sweep_us = 0.0;  ///< apply_diagonal_phase over the cut table
  double mixer_us = 0.0;       ///< apply_rx_layer
  double expect_us = 0.0;      ///< expectation_diagonal
  /// Computed, not measured: bytes one p-layer evaluation must move if
  /// every kernel makes a single pass (amplitudes 16 B/lane, table 8 B).
  double bytes_per_eval = 0.0;
  double gbps = 0.0;  ///< bytes_per_eval over the timed evaluation
};

/// The qsim kernels on the cut table of `g` (q = g.num_nodes()) with
/// `lanes` states: StateVector for 1 lane, BatchedStateVector otherwise.
KernelReplay replay_kernels(const qq::graph::Graph& g, int lanes, int layers);

// Per-layer metric groups shared by every workload.

/// solver.<role>.{count,s_sum} per solve over `solves` solves,
/// solver.<role>.s_p50, and qaoa.evals_per_leaf.
void add_leaf_metrics(Report& report, const std::vector<LeafSpan>& spans,
                      double solves);

/// Solo replays of up to `max_replays` recorded sub leaves that kept their
/// graph: solver.leaf_inflation, qaoa.cut_table_us, optim.overhead_frac.
/// Each replay must reproduce its leaf's recorded cut.
void add_leaf_replays(Report& report, const std::vector<LeafSpan>& spans,
                      const qq::qaoa::QaoaOptions& leaf_options,
                      int max_replays);

/// qsim.12x1.* and qsim.16x16.* on the cut tables of the first 12 and 16
/// nodes of `g`.
void add_kernel_replays(Report& report, const qq::graph::Graph& g, int layers);

/// cache.fingerprint_us_mean over `leaves`, then cache.hit_us_mean: a
/// private cache is filled with every leaf and a second solve_through pass
/// hits on each. Returns the mean hit time in seconds.
double add_cache_replays(Report& report,
                         const std::vector<qq::graph::Graph>& leaves);

}  // namespace e2e
