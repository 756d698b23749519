// Reproduction of the §4 scaling claim ("overall an almost ideal scaling
// is achieved"): a fixed batch of QAOA sub-graph solves is executed with a
// growing number of simulated quantum devices; speedup and parallel
// efficiency are reported.
//
//   ./bench_scaling [--subgraphs 32] [--nodes 10] [--layers 2]

#include <cstdio>
#include <string>
#include <vector>

#include "engine_batch.hpp"
#include "qaoa/qaoa.hpp"
#include "qgraph/generators.hpp"
#include "sched/engine.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  const qq::util::Args args(argc, argv);
  const int subgraphs = args.get_int("subgraphs", 32);
  const auto nodes = static_cast<qq::graph::NodeId>(args.get_int("nodes", 10));
  const int layers = args.get_int("layers", 2);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 10));

  std::printf("=== Scaling of the parallel sub-graph fan-out ===\n");
  std::printf("%d QAOA sub-graph solves (%d nodes each, p=%d) across a "
              "growing device pool\n\n",
              subgraphs, nodes, layers);

  // One shared batch of sub-problems (same seeds across pool sizes).
  qq::util::Rng rng(seed);
  std::vector<qq::graph::Graph> graphs;
  for (int i = 0; i < subgraphs; ++i) {
    graphs.push_back(qq::graph::erdos_renyi(nodes, 0.35, rng));
  }

  qq::util::Table table({"devices", "wall s", "speedup", "efficiency %"});
  double baseline = 0.0;
  for (const int devices : {1, 2, 4, 8}) {
    qq::sched::WorkflowEngine engine(
        qq::sched::EngineOptions{devices, 1});
    std::vector<qq::sched::Task> tasks;
    std::vector<double> values(graphs.size(), 0.0);
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      tasks.push_back({qq::sched::ResourceKind::kQuantum, [&, i] {
                         qq::qaoa::QaoaOptions opts;
                         opts.layers = layers;
                         opts.max_iterations = 40;
                         opts.seed = seed + i;
                         values[i] =
                             qq::qaoa::solve_qaoa(graphs[i], opts).cut.value;
                       }});
    }
    const double wall =
        qq::bench::run_tasks(engine, std::move(tasks)).wall_seconds;
    if (devices == 1) baseline = wall;
    const double speedup = baseline / wall;
    table.add_row({std::to_string(devices),
                   qq::util::format_double(wall, 3),
                   qq::util::format_double(speedup, 2),
                   qq::util::format_double(100.0 * speedup / devices, 1)});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("expected shape: near-linear speedup while the batch is large "
              "relative to the pool (the paper's \"almost ideal scaling\").\n");
  return 0;
}
