// Ablation for the QAOA^2 divide step (paper §5: "motivates the
// investigation of other graph types and partitions"): swap the community
// detector and measure the final cut, part structure, and recursion depth
// on ER, planted-partition, and scale-free instances.
//
//   ./bench_ablation_partition [--nodes 240] [--qubits 10]

#include <cstdio>
#include <string>
#include <vector>

#include "qaoa2/qaoa2.hpp"
#include "qgraph/generators.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  const qq::util::Args args(argc, argv);
  const auto nodes = static_cast<qq::graph::NodeId>(args.get_int("nodes", 240));
  const int qubits = args.get_int("qubits", 10);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 16));

  std::printf("=== Ablation: QAOA^2 partition method ===\n");
  std::printf("%d-node instances, %d-qubit devices, GW sub-solver (isolates "
              "the partition effect from QAOA stochasticity)\n\n",
              nodes, qubits);

  struct Family {
    std::string name;
    qq::graph::Graph graph;
  };
  qq::util::Rng rng(seed);
  std::vector<Family> families;
  families.push_back({"er-p0.05",
                      qq::graph::erdos_renyi(nodes, 0.05, rng)});
  families.push_back(
      {"planted-12x" + std::to_string(nodes / 12),
       qq::graph::planted_partition(12, nodes / 12, 0.4, 0.01, rng)});
  families.push_back({"ba-m3", qq::graph::barabasi_albert(nodes, 3, rng)});
  families.push_back({"ws-k6-b0.1",
                      qq::graph::watts_strogatz(nodes, 6, 0.1, rng)});

  qq::util::Table table({"graph", "partition", "cut", "vs CNM", "parts(L0)",
                         "levels", "seconds"});
  for (const auto& family : families) {
    double cnm_value = 0.0;
    for (const auto method : {qq::graph::PartitionMethod::kGreedyModularity,
                              qq::graph::PartitionMethod::kLouvain,
                              qq::graph::PartitionMethod::kSpectral,
                              qq::graph::PartitionMethod::kBalancedBfs,
                              qq::graph::PartitionMethod::kRandomChunks}) {
      qq::qaoa2::Qaoa2Options opts;
      opts.max_qubits = qubits;
      opts.partition_method = method;
      opts.sub_solver_spec = "gw";
      opts.merge_solver_spec = "gw";
      opts.seed = seed;
      qq::util::Timer timer;
      const auto r = qq::qaoa2::solve_qaoa2(family.graph, opts);
      const double secs = timer.seconds();
      if (method == qq::graph::PartitionMethod::kGreedyModularity) {
        cnm_value = r.cut.value;
      }
      table.add_row(
          {family.name, qq::graph::partition_method_name(method),
           qq::util::format_double(r.cut.value, 1),
           qq::util::format_double(
               cnm_value > 0 ? r.cut.value / cnm_value : 1.0, 3),
           std::to_string(r.level_stats.empty()
                              ? 1
                              : r.level_stats.front().num_parts),
           std::to_string(r.levels), qq::util::format_double(secs, 2)});
    }
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("expected shape: community-aware methods (CNM, Louvain) keep "
              "more weight inside parts on clustered graphs and should not "
              "trail the structure-free chunkers; on structureless ER the "
              "gap narrows — the \"other partitions\" question the paper "
              "leaves open.\n");
  return 0;
}
