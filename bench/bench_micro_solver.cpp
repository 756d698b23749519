// Solver-registry microbenchmarks backing BENCH_solver.json: the evidence
// that routing every sub-graph solve through the `maxcut::Solver` interface
// (ISSUE 5) costs nothing next to the solves themselves.
//
// Workloads (all on a 12-node ER graph; greedy is the cheapest backend, so
// it maximizes the relative weight of any dispatch overhead):
//   direct_call      maxcut::greedy_cut free function — the pre-registry
//                    baseline.
//   solver_solve     A pre-constructed registry solver's solve() — virtual
//                    dispatch + SolveReport assembly + trivial-guard check.
//   make_and_solve   SolverRegistry::make("greedy") + solve() per call —
//                    adds spec parsing and adapter construction.
//   spec_parse       SolverRegistry::make("qaoa:p=3,shots=512,rhobeg=0.4")
//                    alone — the cost of parsing a parameterized spec.
//
//   ./bench_micro_solver [--reps 5] [--iters 20000] [--quick]
//
// Record the numbers in BENCH_solver.json before/after registry changes.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "maxcut/baselines.hpp"
#include "qgraph/generators.hpp"
#include "solver/registry.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

double median_us_per_iter(std::vector<double>& seconds, int iters) {
  std::sort(seconds.begin(), seconds.end());
  return 1e6 * seconds[seconds.size() / 2] / iters;
}

}  // namespace

int main(int argc, char** argv) {
  const qq::util::Args args(argc, argv);
  const bool quick = args.has("quick");
  const int reps = args.get_int("reps", quick ? 2 : 5);
  const int iters = args.get_int("iters", quick ? 2000 : 20000);
  args.reject_unknown();

  qq::util::Rng rng(11);
  const auto g = qq::graph::erdos_renyi(12, 0.3, rng);
  const auto& registry = qq::solver::SolverRegistry::global();
  const auto greedy = registry.make("greedy");

  std::printf("=== solver registry microbench (reps=%d, iters=%d, "
              "%d-node graph) ===\n\n",
              reps, iters, g.num_nodes());

  double sink = 0.0;
  std::vector<double> direct_s, solve_s, make_s, parse_s;
  for (int rep = 0; rep < reps; ++rep) {
    qq::util::Timer t1;
    for (int i = 0; i < iters; ++i) {
      sink += qq::maxcut::greedy_cut(g).value;
    }
    direct_s.push_back(t1.seconds());

    qq::util::Timer t2;
    for (int i = 0; i < iters; ++i) {
      sink += greedy->solve({&g, static_cast<std::uint64_t>(i)}).cut.value;
    }
    solve_s.push_back(t2.seconds());

    qq::util::Timer t3;
    for (int i = 0; i < iters; ++i) {
      sink += registry.make("greedy")
                  ->solve({&g, static_cast<std::uint64_t>(i)})
                  .cut.value;
    }
    make_s.push_back(t3.seconds());

    qq::util::Timer t4;
    for (int i = 0; i < iters; ++i) {
      sink += registry.make("qaoa:p=3,shots=512,rhobeg=0.4") != nullptr;
    }
    parse_s.push_back(t4.seconds());
  }

  const double direct_us = median_us_per_iter(direct_s, iters);
  const double solve_us = median_us_per_iter(solve_s, iters);
  const double make_us = median_us_per_iter(make_s, iters);
  const double parse_us = median_us_per_iter(parse_s, iters);

  std::printf("direct_call      %8.3f us/call   (greedy_cut free function)\n",
              direct_us);
  std::printf("solver_solve     %8.3f us/call   dispatch overhead %+.3f us "
              "(%.1f%%)\n",
              solve_us, solve_us - direct_us,
              direct_us > 0 ? 100.0 * (solve_us - direct_us) / direct_us
                            : 0.0);
  std::printf("make_and_solve   %8.3f us/call   construction overhead "
              "%+.3f us\n",
              make_us, make_us - solve_us);
  std::printf("spec_parse       %8.3f us/call   "
              "(\"qaoa:p=3,shots=512,rhobeg=0.4\")\n",
              parse_us);
  std::printf("\n(sink %.1f) a QAOA sub-graph solve is ~10^4-10^6 us; "
              "record these in BENCH_solver.json before/after registry "
              "changes.\n",
              sink);
  return 0;
}
