// Reproduction of Table 1 (paper §4): the Fig. 3(a)/(b) statistics for the
// larger node counts (paper: 30-33 qubits, simulated on 512 EX nodes) at
// edge probabilities 0.1 and 0.2.
//
// Defaults use node counts that fit one box comfortably; `--full` raises
// them to the largest sizes the in-process simulator accepts (the paper's
// 30-33 qubit runs need ~16-128 GiB state vectors per instance; see
// DESIGN.md "Scaling").
//
//   ./bench_table1 [--nodes 13,14] [--probs 0.1,0.2] [--full]

#include <cstdio>
#include <string>

#include "grid_sweep.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  const qq::util::Args args(argc, argv);
  qq::bench::SweepConfig config;
  if (args.has("full")) {
    config.node_counts = args.get_int_list("nodes", {20, 21, 22, 23});
    config.layer_grid = args.get_int_list("layers", {3, 4, 5, 6, 7, 8});
  } else {
    config.node_counts = args.get_int_list("nodes", {17, 18});
    config.layer_grid = args.get_int_list("layers", {3, 4, 5});
  }
  config.edge_probs = args.get_double_list("probs", {0.1, 0.2});
  config.rhobeg_grid =
      args.get_double_list("rhobeg", {0.1, 0.2, 0.3, 0.4, 0.5});
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 2));
  args.reject_unknown();

  std::printf("=== Table 1 reproduction: QAOA vs GW at larger node counts "
              "===\n\n");
  qq::util::Timer timer;
  const auto result = qq::bench::run_grid_sweep(config);
  std::printf("%d graphs, %d QAOA optimizations in %.1f s\n\n",
              result.graphs_evaluated, result.qaoa_runs, timer.seconds());

  qq::util::Table table({"nodes", "weighted", "stat", "p_edge=0.1",
                         "p_edge=0.2"});
  for (std::size_t ni = 0; ni < config.node_counts.size(); ++ni) {
    for (int w = 1; w >= 0; --w) {  // paper lists "yes" rows first
      table.add_row({std::to_string(config.node_counts[ni]),
                     w ? "yes" : "no", "QAOA > GW",
                     qq::util::format_double(
                         result.win_proportion[static_cast<std::size_t>(w)][ni][0], 3),
                     qq::util::format_double(
                         result.win_proportion[static_cast<std::size_t>(w)][ni][1], 3)});
    }
  }
  for (std::size_t ni = 0; ni < config.node_counts.size(); ++ni) {
    for (int w = 1; w >= 0; --w) {
      table.add_row({std::to_string(config.node_counts[ni]),
                     w ? "yes" : "no", "QAOA in [95,100)% GW",
                     qq::util::format_double(
                         result.near_proportion[static_cast<std::size_t>(w)][ni][0], 3),
                     qq::util::format_double(
                         result.near_proportion[static_cast<std::size_t>(w)][ni][1], 3)});
    }
  }
  std::printf("%s\n", table.str().c_str());

  // Paper's observation: wins become rarer at larger node counts than in
  // the Fig. 3 range.
  double total_wins = 0.0;
  int cells = 0;
  for (int w = 0; w < 2; ++w) {
    for (const auto& row : result.win_proportion[static_cast<std::size_t>(w)]) {
      for (const double v : row) {
        total_wins += v;
        ++cells;
      }
    }
  }
  std::printf("mean win proportion across cells: %.3f (paper reports "
              "<= 0.27 everywhere at 30-33 nodes)\n",
              cells ? total_wins / cells : 0.0);
  return 0;
}
