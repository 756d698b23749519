// Reproduction of Fig. 3 (paper §4): grid search over circuit layers p and
// COBYLA rhobeg, across Erdős–Rényi graphs with varying node counts and
// edge probabilities, scoring QAOA against the GW average of 30 slicings.
//
//   (a) proportion of cases QAOA strictly beats GW, per (nodes, prob);
//   (b) proportion of cases QAOA lands in [95, 100)% of GW;
//   (c) proportion of wins per (rhobeg, p) grid point.
//
// Defaults are laptop scale. Paper scale:
//   ./bench_fig3_grid --full              (nodes 15..25, p 3..8 — slow)
//   ./bench_fig3_grid --nodes 15..20 --layers 3,4,5 ...

#include <cstdio>
#include <limits>
#include <string>

#include "grid_sweep.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

std::vector<std::string> labels_from_ints(const std::vector<int>& xs) {
  std::vector<std::string> out;
  for (const int x : xs) out.push_back(std::to_string(x));
  return out;
}

std::vector<std::string> labels_from_doubles(const std::vector<double>& xs,
                                             int precision) {
  std::vector<std::string> out;
  for (const double x : xs) out.push_back(qq::util::format_double(x, precision));
  return out;
}

void print_pair_of_grids(
    const char* title,
    const std::vector<std::vector<std::vector<double>>>& data,
    const std::vector<std::string>& rows, const std::vector<std::string>& cols,
    const char* row_axis, const char* col_axis) {
  std::printf("%s  [rows: %s, cols: %s]\n", title, row_axis, col_axis);
  const char* names[2] = {"unweighted", "weighted"};
  for (int w = 0; w < 2; ++w) {
    qq::util::Grid grid(names[w], rows, cols, 3);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      for (std::size_t c = 0; c < cols.size(); ++c) {
        grid.set(r, c, data[static_cast<std::size_t>(w)][r][c]);
      }
    }
    std::printf("%s\n", grid.str().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const qq::util::Args args(argc, argv);
  qq::bench::SweepConfig config;
  if (args.has("full")) {
    // Paper scale. NOTE: n=25 state vectors are 512 MiB; expect a long run.
    config.node_counts = args.get_int_list("nodes", {15, 16, 17, 18, 19, 20,
                                                     21, 22, 23, 24, 25});
    config.layer_grid = args.get_int_list("layers", {3, 4, 5, 6, 7, 8});
  } else {
    config.node_counts = args.get_int_list("nodes", {12, 13, 14, 15, 16});
    config.layer_grid = args.get_int_list("layers", {3, 4, 5});
  }
  config.edge_probs =
      args.get_double_list("probs", {0.1, 0.2, 0.3, 0.4, 0.5});
  config.rhobeg_grid =
      args.get_double_list("rhobeg", {0.1, 0.2, 0.3, 0.4, 0.5});
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  args.reject_unknown();

  std::printf("=== Fig. 3 reproduction: QAOA-vs-GW knowledge base ===\n");
  std::printf("nodes: %zu values | edge probs: %zu | grid: %zu layers x %zu "
              "rhobeg\n\n",
              config.node_counts.size(), config.edge_probs.size(),
              config.layer_grid.size(), config.rhobeg_grid.size());

  qq::util::Timer timer;
  const auto result = qq::bench::run_grid_sweep(config);
  std::printf("%d graphs, %d QAOA optimizations in %.1f s\n\n",
              result.graphs_evaluated, result.qaoa_runs, timer.seconds());

  const auto node_labels = labels_from_ints(config.node_counts);
  const auto prob_labels = labels_from_doubles(config.edge_probs, 1);
  const auto layer_labels = labels_from_ints(config.layer_grid);
  const auto rho_labels = labels_from_doubles(config.rhobeg_grid, 1);

  print_pair_of_grids(
      "--- Fig 3(a): proportion of cases QAOA strictly better than GW ---",
      result.win_proportion, node_labels, prob_labels, "node count",
      "edge probability");
  print_pair_of_grids(
      "--- Fig 3(b): proportion of cases QAOA in [95,100)% of GW ---",
      result.near_proportion, node_labels, prob_labels, "node count",
      "edge probability");
  print_pair_of_grids(
      "--- Fig 3(c): win proportion per grid point ---",
      result.grid_win_proportion, rho_labels, layer_labels, "rhobeg",
      "number of layers p");

  // Headline observations the paper draws from these grids.
  double low_p_wins = 0.0, high_p_wins = 0.0;
  const std::size_t half = config.edge_probs.size() / 2;
  for (int w = 0; w < 2; ++w) {
    for (std::size_t ni = 0; ni < config.node_counts.size(); ++ni) {
      for (std::size_t pi = 0; pi < config.edge_probs.size(); ++pi) {
        (pi <= half ? low_p_wins : high_p_wins) +=
            result.win_proportion[static_cast<std::size_t>(w)][ni][pi];
      }
    }
  }
  std::printf("check (paper: QAOA advantage concentrates at low edge "
              "probability): low-p win mass %.2f vs high-p %.2f -> %s\n",
              low_p_wins, high_p_wins,
              low_p_wins > high_p_wins ? "REPRODUCED" : "NOT reproduced");

  double best_cell = -std::numeric_limits<double>::infinity();
  std::size_t best_r = 0, best_l = 0;
  for (std::size_t r = 0; r < config.rhobeg_grid.size(); ++r) {
    for (std::size_t l = 0; l < config.layer_grid.size(); ++l) {
      const double v = result.grid_win_proportion[0][r][l] +
                       result.grid_win_proportion[1][r][l];
      if (v > best_cell) {
        best_cell = v;
        best_r = r;
        best_l = l;
      }
    }
  }
  std::printf("check (paper: best grid point at high rhobeg, mid/high p): "
              "best cell rhobeg=%.1f, p=%d\n",
              config.rhobeg_grid[best_r], config.layer_grid[best_l]);
  return 0;
}
