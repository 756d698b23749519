// Quickstart: solve a small MaxCut instance with QAOA and compare against
// the exact optimum.
//
//   ./quickstart [--nodes 10] [--prob 0.4] [--layers 3] [--seed 1]

#include <cstdio>

#include "maxcut/exact.hpp"
#include "qaoa/qaoa.hpp"
#include "qgraph/generators.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  const qq::util::Args args(argc, argv);
  const int nodes = args.get_int("nodes", 10);
  const double prob = args.get_double("prob", 0.4);
  const int layers = args.get_int("layers", 3);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  args.reject_unknown();

  // 1. Generate a problem instance (Erdős–Rényi, unit weights).
  qq::util::Rng rng(seed);
  const auto g = qq::graph::erdos_renyi(static_cast<qq::graph::NodeId>(nodes),
                                        prob, rng);
  std::printf("graph: %d nodes, %zu edges\n", g.num_nodes(), g.num_edges());

  // 2. Run QAOA (Eq. 2-3 of the paper): COBYLA drives the angles, the
  //    solution is the highest-amplitude bit string.
  qq::qaoa::QaoaOptions opts;
  opts.layers = layers;
  opts.seed = seed;
  const qq::qaoa::QaoaResult result = qq::qaoa::solve_qaoa(g, opts);

  // 3. Compare with the exact optimum (exhaustive, fine below ~26 nodes).
  const auto exact = qq::maxcut::solve_exact(g);

  std::printf("QAOA  : cut = %.4f  (F_p = %.4f, %d objective evaluations)\n",
              result.cut.value, result.expectation, result.evaluations);
  std::printf("exact : cut = %.4f\n", exact.value);
  std::printf("ratio : %.4f\n",
              exact.value > 0 ? result.cut.value / exact.value : 1.0);
  std::printf("bitstring: ");
  for (const auto side : result.cut.assignment) std::printf("%d", side);
  std::printf("\n");
  return 0;
}
