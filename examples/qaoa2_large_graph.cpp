// QAOA-in-QAOA on a graph far larger than the simulated device: the
// paper's §3.3 pipeline end to end — modularity partition, parallel
// sub-graph solves on simulated QPUs, signed merge graph, recursion, flip
// reconstruction — with the hybrid best-of(QAOA, GW) selection.
//
// The sub-solver is any registry spec (see --list-solvers):
//
//   ./qaoa2_large_graph [--nodes 150] [--prob 0.08] [--qubits 10]
//                       [--solver best:qaoa|gw] [--seed 7] [--list-solvers]
//
//   e.g. --solver qaoa:p=3,shots=512   --solver anneal:sweeps=400
//
#include <cstdio>
#include <stdexcept>
#include <string>

#include "qaoa2/qaoa2.hpp"
#include "qgraph/generators.hpp"
#include "solver/registry.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  const qq::util::Args args(argc, argv);
  if (args.has("list-solvers")) {
    std::printf("%s", qq::solver::SolverRegistry::global().help().c_str());
    return 0;
  }
  const int nodes = args.get_int("nodes", 150);
  const double prob = args.get_double("prob", 0.08);
  const int qubits = args.get_int("qubits", 10);
  const std::string solver = args.get("solver", "best");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  try {
    (void)qq::solver::SolverRegistry::global().make(solver);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n(run with --list-solvers for the registry)\n",
                 e.what());
    return 1;
  }

  qq::util::Rng rng(seed);
  const auto g = qq::graph::erdos_renyi(static_cast<qq::graph::NodeId>(nodes),
                                        prob, rng);
  std::printf("graph: %d nodes, %zu edges | device budget: %d qubits\n",
              g.num_nodes(), g.num_edges(), qubits);

  qq::qaoa2::Qaoa2Options opts;
  opts.max_qubits = qubits;
  opts.seed = seed;
  opts.engine = qq::sched::EngineOptions{4, 4};  // 4 QPUs + 4 CPU workers
  opts.sub_solver_spec = solver;

  const auto result = qq::qaoa2::solve_qaoa2(g, opts);

  std::printf("\nQAOA^2 (%s sub-solver)\n", solver.c_str());
  std::printf("  cut value          : %.4f\n", result.cut.value);
  std::printf("  recursion levels   : %d\n", result.levels);
  std::printf("  sub-problems solved: %d (%d quantum, %d classical)\n",
              result.subgraphs_total, result.quantum_solves,
              result.classical_solves);
  std::printf("  components streamed: %d (%d engine tasks)\n",
              result.components, result.engine_tasks);
  for (const auto& level : result.level_stats) {
    std::printf("  level %d: %d parts (sizes %d..%d), cut after merge %.2f\n",
                level.level, level.num_parts, level.smallest_part,
                level.largest_part, level.level_cut);
  }
  std::printf("  solver wall time   : %.3f s (coordination %.3f s)\n",
              result.solve_seconds, result.coordination_seconds);

  // Reference points from the paper's Fig. 4, both through the registry:
  // GW on the whole graph and a random partition.
  const auto& registry = qq::solver::SolverRegistry::global();
  const auto gw = registry.make("gw")->solve({&g, seed + 1});
  const auto random = registry.make("random")->solve({&g, seed + 2});
  std::printf("\nreference: GW on full graph = %.4f | random partition = %.4f\n",
              gw.cut.value, random.cut.value);
  std::printf("QAOA^2 / GW-full ratio: %.4f\n",
              gw.cut.value > 0 ? result.cut.value / gw.cut.value : 1.0);
  return 0;
}
