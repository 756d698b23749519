// Quantification of Fig. 2 (paper §3.6) and the §4 claim that "the
// overhead incurred by the coordination of the various sub-graph solutions
// is minimal": run QAOA^2 through the coordinator/worker engine and report
// the share of wall time spent outside the sub-graph solvers.
//
// The sub-solver series are registry specs (any backend + parameters):
//
//   ./bench_fig2_coordinator [--nodes 120] [--prob 0.1] [--qubits 9]
//                            [--solver qaoa:p=2] [--components 4]
//                            [--list-solvers]
//
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine_batch.hpp"
#include "qaoa2/qaoa2.hpp"
#include "qgraph/generators.hpp"
#include "sched/engine.hpp"
#include "solver/registry.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  const qq::util::Args args(argc, argv);
  const bool list_solvers = args.has("list-solvers");
  const int nodes = args.get_int("nodes", 400);
  const double prob = args.get_double("prob", 0.1);
  const int qubits = args.get_int("qubits", 14);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 8));
  const int num_components = args.get_int("components", 4);
  // Optional restriction of the sub-solver series (default: the paper's
  // three — all-QAOA, all-classic, best-of).
  std::vector<std::string> solvers = {"qaoa", "gw", "best"};
  if (args.has("solver")) {
    solvers = {args.get("solver", "")};
  }
  args.reject_unknown();
  if (list_solvers) {
    std::printf("%s", qq::solver::SolverRegistry::global().help().c_str());
    return 0;
  }
  for (const std::string& spec : solvers) {
    try {
      (void)qq::solver::SolverRegistry::global().make(spec);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\n(run with --list-solvers for the registry)\n",
                   e.what());
      return 1;
    }
  }

  std::printf("=== Fig. 2 quantification: coordinator overhead in QAOA^2 "
              "===\n\n");

  // Part 1: raw engine overhead — empty-ish tasks expose the dispatch cost.
  qq::sched::WorkflowEngine engine(qq::sched::EngineOptions{4, 4});
  for (const int count : {64, 256, 1024}) {
    std::vector<qq::sched::Task> tasks;
    volatile double sink = 0.0;
    for (int i = 0; i < count; ++i) {
      tasks.push_back({i % 2 ? qq::sched::ResourceKind::kQuantum
                             : qq::sched::ResourceKind::kClassical,
                       [&sink] {
                         double acc = 0.0;
                         for (int k = 0; k < 1000; ++k) acc += k * 1e-9;
                         sink = sink + acc;
                       }});
    }
    const qq::bench::BatchTimes batch =
        qq::bench::run_tasks(engine, std::move(tasks));
    std::printf("engine dispatch: %5d tasks in %.4f s  (%.1f us/task, "
                "coordination %.4f s)\n",
                count, batch.wall_seconds, 1e6 * batch.wall_seconds / count,
                batch.coordination_seconds);
  }

  // Part 2: the claim inside the real pipeline.
  qq::util::Rng rng(seed);
  const auto g = qq::graph::erdos_renyi(
      static_cast<qq::graph::NodeId>(nodes), prob, rng);

  // The residual (wall - busy/slots) mixes pure dispatch cost with load
  // imbalance across heterogeneous sub-graph sizes; the dispatch
  // micro-measurement above isolates the former.
  qq::util::Table table({"sub-solver", "cut", "solve s", "residual s",
                         "residual+imbalance %"});
  for (const std::string& spec : solvers) {
    qq::qaoa2::Qaoa2Options opts;
    opts.max_qubits = qubits;
    opts.sub_solver_spec = spec;
    opts.merge_solver_spec = "gw";
    opts.seed = seed;
    opts.engine = qq::sched::EngineOptions{4, 4};
    const auto r = qq::qaoa2::solve_qaoa2(g, opts);
    const double denom = r.solve_seconds + r.coordination_seconds;
    table.add_row({spec,
                   qq::util::format_double(r.cut.value, 1),
                   qq::util::format_double(r.solve_seconds, 3),
                   qq::util::format_double(r.coordination_seconds, 3),
                   qq::util::format_double(
                       denom > 0 ? 100.0 * r.coordination_seconds / denom : 0.0,
                       1)});
  }
  std::printf("\n%s\n", table.str().c_str());

  // Part 3: the streaming pipeline on a multi-component graph with skewed
  // component sizes — the shape where cross-level streaming keeps the slots
  // saturated while a slow component's sub-graphs drain.
  qq::util::Rng comp_rng(seed + 99);
  std::vector<qq::graph::Graph> blobs;
  int total_nodes = 0;
  for (int c = 0; c < num_components; ++c) {
    const int n = c == 0 ? nodes / 2 : nodes / (2 * std::max(1, num_components - 1));
    blobs.push_back(qq::graph::erdos_renyi(
        static_cast<qq::graph::NodeId>(n), prob, comp_rng));
    total_nodes += n;
  }
  qq::graph::Graph multi(static_cast<qq::graph::NodeId>(total_nodes));
  int offset = 0;
  for (const auto& blob : blobs) {
    for (const qq::graph::Edge& e : blob.edges()) {
      multi.add_edge(e.u + offset, e.v + offset, e.w);
    }
    offset += blob.num_nodes();
  }
  qq::util::Table stream_table(
      {"cut", "wall s", "engine tasks", "queue wait s"});
  {
    qq::qaoa2::Qaoa2Options opts;
    opts.max_qubits = qubits;
    opts.sub_solver_spec = solvers.front();
    opts.merge_solver_spec = "gw";
    opts.seed = seed;
    opts.engine = qq::sched::EngineOptions{4, 4};
    qq::util::Timer timer;
    const auto r = qq::qaoa2::solve_qaoa2(multi, opts);
    stream_table.add_row({qq::util::format_double(r.cut.value, 1),
                          qq::util::format_double(timer.seconds(), 3),
                          std::to_string(r.engine_tasks),
                          qq::util::format_double(r.queue_wait_seconds, 3)});
  }
  std::printf("multi-component pipeline (%d components, %d nodes):\n%s\n",
              num_components, total_nodes, stream_table.str().c_str());

  std::printf("paper claim: \"the overhead incurred by the coordination of "
              "the various sub-graph solutions is minimal\" — the pure "
              "dispatch cost above (tens of microseconds per task) is orders "
              "of magnitude below a sub-graph solve; the residual column "
              "additionally contains load imbalance between uneven "
              "sub-graphs.\n");
  return 0;
}
