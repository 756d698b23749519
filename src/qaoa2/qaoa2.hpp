#pragma once
// QAOA-in-QAOA (QAOA^2) driver — the paper's primary contribution (§3.3):
// divide the graph into qubit-sized sub-graphs (greedy modularity), solve
// the sub-graphs in parallel on (simulated) quantum devices and/or
// classical solvers, merge via the signed coarse graph, and recurse until
// the coarse problem fits on one device.
//
// Every solver role is named AND configured by a registry spec string
// (solver/registry.hpp), built with the registry defaults: "qaoa:p=2,
// iters=40" carries the ansatz depth and budget, "gw:rounds=6" the slicing
// count. The spec string is also the role's cache key. The hybrid
// selection the paper studies (§3.6/Fig. 4) is the sub-solver spec:
// all-QAOA ("qaoa"), all-GW ("gw"), or per-sub-graph best of both
// ("best:qaoa:p=2|gw").
//
// The solve is sharded by connected component and STREAMED: every
// component flows partition -> sub-solves -> merge -> coarse
// solve/recursion as a chain of dependent tasks on ONE persistent
// WorkflowEngine, so a component whose sub-solves finish starts its coarse
// level while other components' sub-graphs are still running. Every
// sub-problem's seed is a pure function of (component, level, part), so the
// cut does not depend on the schedule.

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cache/solve_cache.hpp"
#include "maxcut/cut.hpp"
#include "qgraph/graph.hpp"
#include "qgraph/partition.hpp"
#include "sched/engine.hpp"
#include "solver/solver.hpp"
#include "util/cancellation.hpp"

namespace qq::qaoa2 {

struct Qaoa2Options {
  /// Qubit budget n of the (simulated) devices; also the partition cap.
  int max_qubits = 12;
  /// Divide-step community detector (paper uses greedy modularity; the §5
  /// outlook motivates trying others — see bench_ablation_partition).
  graph::PartitionMethod partition_method =
      graph::PartitionMethod::kGreedyModularity;
  /// Registry spec strings of the three solver roles (e.g.
  /// "qaoa:p=3,shots=512", "best:qaoa:p=2|gw", "anneal:sweeps=400"); they
  /// reach every backend registered with SolverRegistry and are the only
  /// place a role's settings live.
  /// First-level sub-graphs (Fig. 4 "QAOA").
  std::string sub_solver_spec = "qaoa";
  /// Deeper recursion levels. The paper: "In case of further iterations in
  /// the QAOA^2 method, the classical solution is chosen."
  std::string deeper_solver_spec = "gw";
  /// The coarse merge graphs (paper step 5 uses QAOA). Must not be a
  /// best-of combinator (the coarse graph gets exactly one solve).
  std::string merge_solver_spec = "qaoa";
  /// Simulated device count / classical worker slots for the parallel
  /// sub-graph fan-out (Fig. 2).
  sched::EngineOptions engine;
  /// Cooperative stop state threaded into every sub-solve (viewed, not
  /// owned; may be null). A stopped context unwinds the remaining task
  /// graph as cancelled; results are unchanged while it never trips.
  const util::RequestContext* context = nullptr;
  std::uint64_t seed = 0;
  /// Fleet-wide solve cache every leaf/coarse solve routes through (viewed,
  /// not owned; may be null = uncached). Entries are keyed on (subgraph,
  /// role spec, seed), so cached solves are bit-for-bit identical to
  /// uncached ones — only faster when a (subgraph, spec, seed) repeats.
  cache::SolveCache* solve_cache = nullptr;
  /// Per-solve cache behavior (warm starts, stats class).
  cache::CachePolicy cache_policy;
};

/// Engine-level identity of one solve when many solves multiplex one
/// engine (the service layer): which fair-share class its tasks bill to,
/// which cancellation group scopes them, and the request's stop state.
/// Defaults reproduce the single-tenant behavior exactly.
struct SolveTags {
  sched::ClassId fair_class = 0;
  sched::GroupId group = sched::kNoGroup;
  const util::RequestContext* context = nullptr;
};

struct LevelStats {
  int level = 0;
  /// Sub-problems solved at this level, summed over components. The final
  /// level of every component (the coarse graph that fits on a device) is
  /// recorded as one part.
  int num_parts = 0;
  int largest_part = 0;
  int smallest_part = 0;
  /// Cut value of this level's graph under the assignment after this
  /// level's merge, summed over the components that reach this level. At
  /// level 0 the level graph is the input graph, so this equals the final
  /// cut value.
  double level_cut = 0.0;
};

struct Qaoa2Result {
  maxcut::CutResult cut;
  int levels = 0;
  int subgraphs_total = 0;
  int quantum_solves = 0;
  int classical_solves = 0;
  /// Connected components of the input graph (the sharding granularity
  /// when the graph exceeds the device; 0 for the empty graph).
  int components = 0;
  /// Tasks executed by the workflow engine, the planning task included (0
  /// when the graph fit on one device and no engine was needed).
  int engine_tasks = 0;
  double solve_seconds = 0.0;         ///< wall time in sub-graph solvers
  double coordination_seconds = 0.0;  ///< engine overhead (Fig. 2 claim)
  /// Σ per-task queue wait (slot wait + pool queueing) across every engine
  /// task — the time sub-solves spent ready-but-not-running.
  double queue_wait_seconds = 0.0;
  std::vector<LevelStats> level_stats;  ///< ordered by level, ascending
};

class StreamPipeline;

class Qaoa2Driver {
 public:
  /// Completion callback of an asynchronous solve: the result (valid only
  /// when `error` is null) and the first task error — a
  /// util::CancelledError when the solve was cancelled / timed out.
  /// Invoked exactly once, outside the engine lock, on whichever thread
  /// settled the last task; it may submit further engine work but must not
  /// block.
  using DoneFn = std::function<void(Qaoa2Result, std::exception_ptr)>;

  /// Builds the three solver roles with SolverRegistry::global().make(spec)
  /// and validates the specs (std::invalid_argument on malformed or unknown
  /// ones, and when the merge solver is a best-of combinator).
  explicit Qaoa2Driver(const Qaoa2Options& options);

  const Qaoa2Options& options() const noexcept { return options_; }

  /// Synchronous solve. A graph that fits on one device is solved directly;
  /// a larger one runs solve_async on a private engine built from
  /// `options().engine`, which is drained before returning. Rethrows the
  /// first task error.
  Qaoa2Result solve(const graph::Graph& g) const;

  /// Asynchronous solve on a CALLER-owned engine: submits a planning task
  /// and returns immediately; the component chains stream through the
  /// engine under `tags` (fair-share class, cancellation group, stop
  /// context) and `done` fires once when the last task settles. Many
  /// concurrent solves — of many drivers — multiplex one engine this way;
  /// `options().engine` is ignored. The graph, the driver, and the engine
  /// must outlive the solve; the returned handle keeps the pipeline state
  /// alive and is safe to drop (the in-flight tasks co-own it). Results for
  /// a given (options, seed) do not depend on the engine or its schedule.
  std::shared_ptr<StreamPipeline> solve_async(sched::WorkflowEngine& engine,
                                              const graph::Graph& g,
                                              const SolveTags& tags,
                                              DoneFn done) const;

 private:
  friend class StreamPipeline;

  /// Solve a (coarse) graph that fits on one device: the base case at
  /// level 0 and the final coarse solve at deeper levels share this path,
  /// which records the level's stats and counters (the final level used to
  /// be missing from level_stats entirely).
  maxcut::CutResult solve_fitting_level(const graph::Graph& g, int level,
                                        std::uint64_t base_seed,
                                        Qaoa2Result& result,
                                        const util::RequestContext* context)
      const;

  /// The registry-built solver serving a partitioned level: sub_ at level
  /// 0, deeper_ below.
  const solver::Solver& level_solver(int level) const noexcept {
    return level == 0 ? *sub_ : *deeper_;
  }

  /// Every sub/coarse solve funnels through here: straight to the solver
  /// when no cache is configured, through SolveCache::solve_through (keyed
  /// on `solver_key`, the role's spec string) otherwise.
  solver::SolveReport dispatch_solve(const solver::Solver& s,
                                     std::string_view solver_key,
                                     const solver::SolveRequest& request)
      const;

  /// Cache keys of one partitioned level's task fan-out: the level's role
  /// spec, suffixed "#arm<i>" when a best-of fans out multiple arms (each
  /// arm is a distinct solver configuration).
  std::vector<std::string> arm_solver_keys(int level,
                                           std::size_t num_arms) const;

  Qaoa2Options options_;
  // Registry-built instances of the three solver roles (immutable, shared
  // by every concurrent engine task of a solve).
  solver::SolverPtr sub_;
  solver::SolverPtr deeper_;
  solver::SolverPtr merge_;
};

/// Convenience wrapper.
Qaoa2Result solve_qaoa2(const graph::Graph& g, const Qaoa2Options& options = {});

/// Base seed of component `component` of `num_components` in a sharded
/// solve. Identity for a single-component (connected) graph — sharding must
/// not perturb the unsharded seed stream — and a SplitMix64 mix of the
/// component ordinal otherwise, so solving a component independently with
/// this seed reproduces the sharded solve's per-component results exactly.
std::uint64_t component_seed(std::uint64_t seed, std::size_t component,
                             std::size_t num_components) noexcept;

}  // namespace qq::qaoa2
