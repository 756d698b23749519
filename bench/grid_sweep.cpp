#include "grid_sweep.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "qaoa/qaoa.hpp"
#include "qgraph/generators.hpp"
#include "solver/registry.hpp"
#include "util/mutex.hpp"
#include "util/thread_pool.hpp"

namespace qq::bench {

namespace {

struct GraphTask {
  int node_idx;
  int prob_idx;
  int weighted;  // 0/1
};

}  // namespace

SweepResult run_grid_sweep(const SweepConfig& config) {
  if (config.node_counts.empty() || config.edge_probs.empty() ||
      config.layer_grid.empty() || config.rhobeg_grid.empty()) {
    throw std::invalid_argument("run_grid_sweep: empty sweep dimension");
  }
  const std::size_t n_nodes = config.node_counts.size();
  const std::size_t n_probs = config.edge_probs.size();
  const std::size_t n_layers = config.layer_grid.size();
  const std::size_t n_rho = config.rhobeg_grid.size();

  // The classical reference is a registry-built solver (shared across the
  // parallel graph tasks; solves are const and thread-safe).
  const solver::SolverPtr classical =
      solver::SolverRegistry::global().make(config.classical_spec);

  SweepResult result;
  for (auto* grids : {&result.win_proportion, &result.near_proportion}) {
    grids->assign(2, std::vector<std::vector<double>>(
                         n_nodes, std::vector<double>(n_probs, 0.0)));
  }
  result.grid_win_proportion.assign(
      2, std::vector<std::vector<double>>(n_rho,
                                          std::vector<double>(n_layers, 0.0)));

  std::vector<GraphTask> tasks;
  for (int weighted = 0; weighted < 2; ++weighted) {
    for (std::size_t ni = 0; ni < n_nodes; ++ni) {
      for (std::size_t pi = 0; pi < n_probs; ++pi) {
        tasks.push_back(GraphTask{static_cast<int>(ni), static_cast<int>(pi),
                                  weighted});
      }
    }
  }

  // Grid-win counters per (weighted, rhobeg, p), accumulated across graphs.
  util::Mutex mutex;
  std::atomic<int> qaoa_runs{0};

  // Above ~20 qubits a single state vector is large enough that the inner
  // simulator parallelism should own the cores instead of the graph-level
  // fan-out.
  const int max_n = *std::max_element(config.node_counts.begin(),
                                      config.node_counts.end());
  const std::size_t outer_grain = max_n > 20 ? tasks.size() : 1;

  util::parallel_for(
      0, tasks.size(),
      [&](std::size_t task_idx) {
        const GraphTask& task = tasks[task_idx];
        const int nodes = config.node_counts[static_cast<std::size_t>(task.node_idx)];
        const double prob = config.edge_probs[static_cast<std::size_t>(task.prob_idx)];

        // One graph instance per cell, exactly as in the paper ("a graph
        // instance with uniform edges and one with edge weights randomly
        // chosen in [0,1] is created for every node count and edge
        // probability").
        util::Rng graph_rng(config.seed ^
                            (static_cast<std::uint64_t>(task_idx) * 0x9e37ULL));
        const auto g = graph::erdos_renyi(
            static_cast<graph::NodeId>(nodes), prob, graph_rng,
            task.weighted ? graph::WeightMode::kUniform01
                          : graph::WeightMode::kUnit);
        if (g.num_edges() == 0) return;

        const solver::SolveReport classical_report = classical->solve(
            {&g, config.seed + static_cast<std::uint64_t>(task_idx)});
        const double gw_avg = classical_report.metric(
            "average_value", classical_report.cut.value);

        const qaoa::QaoaSolver solver(g);
        std::vector<std::vector<int>> local_grid_wins(
            n_rho, std::vector<int>(n_layers, 0));
        int wins = 0, nears = 0;
        for (std::size_t li = 0; li < n_layers; ++li) {
          for (std::size_t ri = 0; ri < n_rho; ++ri) {
            qaoa::QaoaOptions qopts;
            qopts.layers = config.layer_grid[li];
            qopts.rhobeg = config.rhobeg_grid[ri];
            qopts.max_iterations = config.max_iterations;
            qopts.shot_based_objective = config.shot_based_objective;
            qopts.shots = config.shots;
            // Random initial angles: the paper's COBYLA starts without a
            // structure-aware warm start, which is exactly why its grid
            // search over rhobeg matters. The library's default linear-ramp
            // init would make every grid point succeed alike.
            qopts.init = qaoa::InitKind::kRandom;
            qopts.seed = config.seed + 31ULL * task_idx + 7ULL * li + ri;
            const double value = solver.optimize(qopts).cut.value;
            ++qaoa_runs;
            if (value > gw_avg) {
              ++wins;
              ++local_grid_wins[ri][li];
            } else if (value >= 0.95 * gw_avg) {
              ++nears;
            }
          }
        }

        const double grid_points = static_cast<double>(n_layers * n_rho);
        util::MutexLock lock(mutex);
        const auto w = static_cast<std::size_t>(task.weighted);
        const auto ni = static_cast<std::size_t>(task.node_idx);
        const auto pi = static_cast<std::size_t>(task.prob_idx);
        result.win_proportion[w][ni][pi] = wins / grid_points;
        result.near_proportion[w][ni][pi] = nears / grid_points;
        for (std::size_t ri = 0; ri < n_rho; ++ri) {
          for (std::size_t li = 0; li < n_layers; ++li) {
            result.grid_win_proportion[w][ri][li] +=
                local_grid_wins[ri][li];
          }
        }
        ++result.graphs_evaluated;
      },
      outer_grain);

  // Normalize grid wins by the number of graphs per weighting class.
  const double graphs_per_class = static_cast<double>(n_nodes * n_probs);
  for (auto& per_weight : result.grid_win_proportion) {
    for (auto& row : per_weight) {
      for (double& v : row) v /= graphs_per_class;
    }
  }
  result.qaoa_runs = qaoa_runs.load();
  return result;
}

}  // namespace qq::bench
