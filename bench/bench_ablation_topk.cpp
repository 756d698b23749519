// Ablation for the paper's §5 claim: "considering a larger number of
// amplitudes in the resulting state vectors is expected to significantly
// improve the QAOA results". Sweep the number k of highest-probability bit
// strings scanned for the final answer and measure the cut quality
// (relative to the exact optimum) across instances.
//
//   ./bench_ablation_topk [--nodes 12] [--instances 20] [--layers 3]

#include <cstdio>
#include <string>
#include <vector>

#include "qaoa/qaoa.hpp"
#include "qgraph/generators.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  const qq::util::Args args(argc, argv);
  const auto nodes = static_cast<qq::graph::NodeId>(args.get_int("nodes", 12));
  const int instances = args.get_int("instances", 20);
  const int layers = args.get_int("layers", 3);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 14));
  const std::vector<int> ks = args.get_int_list("k", {1, 2, 4, 8, 16, 64});
  args.reject_unknown();

  std::printf("=== Ablation: top-k amplitude scan (paper section 5 claim) "
              "===\n");
  std::printf("%d ER instances, %d nodes, p = %d; QAOA driven by the noisy "
              "4096-shot objective with random init (the regime where the "
              "argmax string is fallible)\n\n",
              instances, nodes, layers);

  std::vector<qq::util::RunningStats> ratio(ks.size());
  std::vector<int> optimal_hits(ks.size(), 0);

  qq::util::Rng rng(seed);
  for (int inst = 0; inst < instances; ++inst) {
    const double prob = 0.2 + 0.1 * (inst % 3);
    const auto g = qq::graph::erdos_renyi(nodes, prob, rng);
    if (g.num_edges() == 0) continue;
    const qq::qaoa::QaoaSolver solver(g);
    const double exact = solver.exact_optimum();
    for (std::size_t ki = 0; ki < ks.size(); ++ki) {
      qq::qaoa::QaoaOptions opts;
      opts.layers = layers;
      opts.top_k = ks[ki];
      opts.shot_based_objective = true;
      opts.init = qq::qaoa::InitKind::kRandom;
      opts.seed = seed + static_cast<std::uint64_t>(inst);  // same per k
      const auto r = solver.optimize(opts);
      ratio[ki].add(r.cut.value / exact);
      if (r.cut.value >= exact - 1e-9) ++optimal_hits[ki];
    }
  }

  qq::util::Table table({"top-k", "mean ratio", "min ratio", "optimal found"});
  for (std::size_t ki = 0; ki < ks.size(); ++ki) {
    table.add_row({std::to_string(ks[ki]),
                   qq::util::format_double(ratio[ki].mean(), 4),
                   qq::util::format_double(ratio[ki].min(), 4),
                   std::to_string(optimal_hits[ki]) + "/" +
                       std::to_string(static_cast<int>(ratio[ki].count()))});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("check: the mean approximation ratio is non-decreasing in k "
              "by construction (each larger k scans a superset); the gap "
              "between k=1 and k=64 quantifies the paper's expected "
              "improvement.\n");
  return 0;
}
