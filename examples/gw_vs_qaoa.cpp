// Head-to-head on a single instance: sweep QAOA's (p, rhobeg) grid exactly
// like the paper's §4 knowledge-base construction and compare every grid
// point against GW (average of 30 slicings) and the exact optimum.
//
//   ./gw_vs_qaoa [--nodes 12] [--prob 0.2] [--weighted] [--seed 11]

#include <cstdio>
#include <vector>

#include "maxcut/exact.hpp"
#include "qaoa/qaoa.hpp"
#include "qgraph/generators.hpp"
#include "sdp/gw.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  const qq::util::Args args(argc, argv);
  const auto nodes = static_cast<qq::graph::NodeId>(args.get_int("nodes", 12));
  const double prob = args.get_double("prob", 0.2);
  const bool weighted = args.has("weighted");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 11));
  const std::vector<int> layer_grid = args.get_int_list("layers", {1, 2, 3, 4});
  const std::vector<double> rhobeg_grid =
      args.get_double_list("rhobeg", {0.1, 0.3, 0.5});
  args.reject_unknown();

  qq::util::Rng rng(seed);
  const auto g = qq::graph::erdos_renyi(
      nodes, prob, rng,
      weighted ? qq::graph::WeightMode::kUniform01
               : qq::graph::WeightMode::kUnit);
  std::printf("graph: %d nodes, %zu edges (%s)\n", g.num_nodes(),
              g.num_edges(), weighted ? "weighted" : "unweighted");

  const double exact = qq::maxcut::solve_exact(g).value;
  qq::sdp::GwOptions gw_opts;
  gw_opts.seed = seed;
  const auto gw = qq::sdp::goemans_williamson(g, gw_opts);
  std::printf("exact optimum: %.4f | GW avg of 30 slicings: %.4f | GW best: "
              "%.4f | SDP bound: %.4f\n\n",
              exact, gw.average_value, gw.best.value, gw.sdp_bound);

  const qq::qaoa::QaoaSolver solver(g);
  qq::util::Table table({"p", "rhobeg", "iters", "F_p", "cut", "vs GWavg"});
  for (const int p : layer_grid) {
    for (const double rhobeg : rhobeg_grid) {
      qq::qaoa::QaoaOptions opts;
      opts.layers = p;
      opts.rhobeg = rhobeg;
      opts.seed = seed;
      const auto r = solver.optimize(opts);
      table.add_row({std::to_string(p), qq::util::format_double(rhobeg, 1),
                     std::to_string(r.evaluations),
                     qq::util::format_double(r.expectation, 4),
                     qq::util::format_double(r.cut.value, 4),
                     r.cut.value > gw.average_value ? "QAOA wins" : "GW wins"});
    }
  }
  std::printf("%s\n", table.str().c_str());
  return 0;
}
