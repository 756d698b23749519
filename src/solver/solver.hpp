#pragma once
// Unified MaxCut solver interface.
//
// The paper's hybrid knob (§3.6/Fig. 4) is "which solver handles which
// sub-graph"; the multilevel and HPC-bridging lines of work treat the
// solver as a pluggable component. This module makes that pluggability a
// first-class API: every backend — quantum (simulated QAOA, RQAOA) or
// classical (GW, exact, annealing, local search, greedy, random) — solves
// through the same `Solver::solve(SolveRequest) -> SolveReport` contract,
// and `SolverRegistry` (registry.hpp) constructs any of them from a single
// spec string such as "qaoa:p=3,shots=512" or "best:qaoa|gw".
//
// Consumers (the QAOA^2 driver, the ML knowledge base builders, benches,
// examples) dispatch through this interface instead of hand-rolled
// switches, so new backends, per-solver budgets, and data-driven selection
// land in one place.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "maxcut/anneal.hpp"
#include "maxcut/cut.hpp"
#include "qaoa/qaoa.hpp"
#include "qgraph/graph.hpp"
#include "sched/engine.hpp"
#include "sdp/gw.hpp"
#include "util/cancellation.hpp"

namespace qq::solver {

/// One solve invocation: the graph plus everything a backend may key its
/// randomness or budgets on. The graph is viewed, not owned; it must
/// outlive the call.
struct SolveRequest {
  const graph::Graph* graph = nullptr;
  /// Every backend derives all of its randomness from this seed (adapters
  /// apply their historical per-backend salts internally), so a request is
  /// exactly reproducible from (spec, seed).
  std::uint64_t seed = 0;
  /// Objective-evaluation budget; honored by the QAOA/RQAOA backends
  /// (overrides their configured max_iterations).
  std::optional<int> eval_budget;
  /// Cooperative stop state of the owning request (service layer). Viewed,
  /// not owned; may be null. `Solver::solve` refuses to start once it has
  /// tripped (throws util::CancelledError), clamps `eval_budget` to the
  /// context's remaining evaluation budget, charges the evaluations the
  /// solve performed, and the adapters hand it to their backends so long
  /// optimizer loops / sweeps / slicings stop mid-solve.
  const util::RequestContext* context = nullptr;
  /// Warm-start parameter vector (viewed, not owned; must outlive the
  /// call). Backends with a parameterized ansatz use it as the optimizer's
  /// starting point when its size equals their `warm_start_dimension()`;
  /// everyone else ignores it. Set by the solve cache's miss path from
  /// transferred (gamma, beta) schedules.
  const std::vector<double>* initial_parameters = nullptr;
};

/// A named scalar a backend wants to surface alongside the cut (GW's
/// average-of-slicings, QAOA's optimized expectation, RQAOA's rounds, ...).
struct SolveMetric {
  std::string key;
  double value = 0.0;
};

struct SolveReport {
  maxcut::CutResult cut;
  /// name() of the producing solver.
  std::string solver;
  double wall_seconds = 0.0;
  /// Objective evaluations, where the backend counts them (QAOA/RQAOA).
  int evaluations = 0;
  /// Solves performed per resource kind: 1/0 for a leaf backend, the child
  /// sum for a combinator — so "best:qaoa|gw" reports one quantum AND one
  /// classical solve and callers can account for both (the old enum switch
  /// silently undercounted this).
  int quantum_solves = 0;
  int classical_solves = 0;
  std::vector<SolveMetric> metrics;
  /// Optimized variational parameters ([gamma..., beta...] for QAOA-family
  /// backends; empty otherwise). Lets the cache/warm-start layer learn
  /// transferable schedules from every fill.
  std::vector<double> parameters;

  double metric(std::string_view key, double fallback = 0.0) const noexcept {
    for (const SolveMetric& m : metrics) {
      if (m.key == key) return m.value;
    }
    return fallback;
  }
};

/// Abstract MaxCut solver. Implementations are immutable after
/// construction and `solve` is const, so one instance may serve many
/// concurrent solves (the QAOA^2 engine calls one solver from many tasks).
class Solver {
 public:
  virtual ~Solver() = default;

  /// Registry name this solver was constructed under ("qaoa", "gw", ...).
  virtual std::string_view name() const noexcept = 0;

  /// Which slot budget a solve of this backend consumes (paper Fig. 2:
  /// simulated QPUs vs the CPU partition).
  virtual sched::ResourceKind resource_kind() const noexcept = 0;

  /// Child solvers of a combinator ("best:..."); empty for leaf backends.
  /// Callers that own the parallelism (the QAOA^2 pipelines) fan a
  /// combinator out as one task per child on the child's resource kind.
  virtual std::vector<const Solver*> children() const { return {}; }

  /// (quantum, classical) solves one call performs: kind-based 1/0 for a
  /// leaf, the recursive child sum for a combinator.
  virtual std::pair<int, int> solve_counts() const;

  /// Size of the warm-start parameter vector this backend can consume via
  /// SolveRequest::initial_parameters (2 * layers for the QAOA family); 0
  /// when warm starts are meaningless for it.
  virtual int warm_start_dimension() const noexcept { return 0; }

  /// Solve `request.graph`. Applies the shared trivial guard (fewer than 2
  /// nodes or no edges: all-zero assignment, value 0, no backend call),
  /// times the backend, and stamps `solver`/solve counts, so every
  /// backend — current and future — shares those semantics. Throws
  /// std::invalid_argument for a null graph.
  SolveReport solve(const SolveRequest& request) const;

 protected:
  /// Backend payload; only called with a non-trivial graph.
  virtual SolveReport do_solve(const SolveRequest& request) const = 0;
};

using SolverPtr = std::unique_ptr<Solver>;

/// Base configuration the adapters start from before applying spec-string
/// parameters. Every library caller (the QAOA^2 driver and the service
/// included) uses the defaults, so a spec string alone names a solver
/// configuration and can serve as its cache key; the parameter remains for
/// registry factories that forward it to child specs.
struct SolverDefaults {
  qaoa::QaoaOptions qaoa;
  sdp::GwOptions gw;
  maxcut::AnnealOptions anneal;
  /// one_exchange_restarts restart count (the old switch hardcoded 10).
  int local_search_restarts = 10;
  /// RQAOA exact-solve cutoff.
  int rqaoa_cutoff = 8;
  /// randomized_partitioning side probability.
  double random_p = 0.5;
};

}  // namespace qq::solver
