// Micro-benchmarks of the QAOA driver: cut-table construction, a single
// objective evaluation (state preparation + expectation), and a full
// paper-schedule optimization.

#include <benchmark/benchmark.h>

#include <vector>

#include "qaoa/cost_table.hpp"
#include "qaoa/qaoa.hpp"
#include "qgraph/generators.hpp"
#include "util/rng.hpp"

namespace {

qq::graph::Graph instance(int n, double p, std::uint64_t seed) {
  qq::util::Rng rng(seed);
  return qq::graph::erdos_renyi(static_cast<qq::graph::NodeId>(n), p, rng);
}

void BM_BuildCutTable(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto g = instance(n, 0.3, 1);
  for (auto _ : state) {
    auto table = qq::qaoa::build_cut_table(g);
    benchmark::DoNotOptimize(table);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(1ULL << n) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_BuildCutTable)->Arg(10)->Arg(14)->Arg(18)->Arg(20);

void BM_ObjectiveEvaluation(benchmark::State& state) {
  // One F_p evaluation at p = 3 — the unit of the paper's iteration budget.
  const int n = static_cast<int>(state.range(0));
  const auto g = instance(n, 0.3, 2);
  const qq::qaoa::QaoaSolver solver(g);
  qq::circuit::QaoaAngles angles;
  angles.gammas = {0.2, 0.4, 0.6};
  angles.betas = {0.6, 0.4, 0.2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.expectation(angles));
  }
}
BENCHMARK(BM_ObjectiveEvaluation)->Arg(10)->Arg(14)->Arg(16)->Arg(18);

void BM_LockstepObjective(benchmark::State& state) {
  // One F_p evaluation at p = 2 of `lanes` restart points through
  // QaoaSolver::expectations: one pool task per point on its own flat half
  // state, the per-point workspace allocation included. This is the shape
  // of one optimizer step of a restarts = lanes leaf.
  const int n = static_cast<int>(state.range(0));
  const int lanes = static_cast<int>(state.range(1));
  const auto g = instance(n, 0.3, 2);
  const qq::qaoa::QaoaSolver solver(g);
  std::vector<std::vector<double>> points;
  for (int b = 0; b < lanes; ++b) {
    points.push_back({0.2 + 0.01 * b, 0.4, 0.6 - 0.01 * b, 0.3});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.expectations(points));
  }
}
BENCHMARK(BM_LockstepObjective)->Args({12, 16})->Args({14, 16})->Args({16, 16});

void BM_FullOptimization(benchmark::State& state) {
  // Complete hybrid loop with the paper's iteration schedule at p = 3.
  const int n = static_cast<int>(state.range(0));
  const auto g = instance(n, 0.3, 3);
  const qq::qaoa::QaoaSolver solver(g);
  qq::qaoa::QaoaOptions opts;
  opts.layers = 3;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    opts.seed = seed++;
    benchmark::DoNotOptimize(solver.optimize(opts));
  }
}
BENCHMARK(BM_FullOptimization)->Arg(10)->Arg(12)->Arg(14)
    ->Unit(benchmark::kMillisecond);

// Multi-restart solve at p = 2, 40 evaluations per restart: every step with
// more than one live restart evaluates them as parallel flat lanes, one
// pool task each, with the kernels inline once the lanes fill the pool.
// BM_RestartsSequential below is the bit-identical replay, restart by
// restart (restart_initial_parameters + restarts=1 per run).
void BM_Restarts(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int restarts = static_cast<int>(state.range(1));
  const auto g = instance(n, 0.3, 4);
  const qq::qaoa::QaoaSolver solver(g);
  qq::qaoa::QaoaOptions opts;
  opts.layers = 2;
  opts.max_iterations = 40;
  opts.seed = 7;
  opts.restarts = restarts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.optimize(opts));
  }
}
BENCHMARK(BM_Restarts)
    ->Args({12, 16})
    ->Args({14, 16})
    ->Args({16, 16})
    ->Unit(benchmark::kMillisecond);

void BM_RestartsSequential(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int restarts = static_cast<int>(state.range(1));
  const auto g = instance(n, 0.3, 4);
  const qq::qaoa::QaoaSolver solver(g);
  qq::qaoa::QaoaOptions opts;
  opts.layers = 2;
  opts.max_iterations = 40;
  opts.seed = 7;
  for (auto _ : state) {
    qq::qaoa::QaoaResult best;
    for (int r = 0; r < restarts; ++r) {
      qq::qaoa::QaoaOptions single = opts;
      single.initial_parameters = qq::qaoa::restart_initial_parameters(opts, r);
      qq::qaoa::QaoaResult res = solver.optimize(single);
      if (r == 0 || res.expectation > best.expectation) best = std::move(res);
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_RestartsSequential)
    ->Args({10, 8})
    ->Args({12, 8})
    ->Args({14, 8})
    ->Unit(benchmark::kMillisecond);

}  // namespace
