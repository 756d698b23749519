// Reproduction of Fig. 4 (paper §4): QAOA^2 applied to large unweighted
// Erdős–Rényi graphs (paper: 500..2500 nodes, edge probability 0.1). The
// sub-graphs of the first partition are solved either all with QAOA
// ("QAOA"), all with GW ("Classic"), or with the best of the two ("Best");
// GW on the original graph ("GW") and a random partition ("Random")
// complete the series. Values are reported relative to the QAOA series,
// exactly as in the figure.
//
//   ./bench_fig4_qaoa2 [--nodes 60,120,180,240,300] [--prob 0.1]
//                      [--qubits 10] [--restarts 1] [--workers 4] [--full]
//
// --restarts R runs every leaf QAOA solve with R diversified optimizer
// restarts whose points each step evaluates together through
// BatchedStateVector; the trajectories and cuts are bit-identical to R
// sequential solves.

#include <cstdio>
#include <string>
#include <vector>

#include "qaoa2/qaoa2.hpp"
#include "qgraph/generators.hpp"
#include "solver/registry.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  const qq::util::Args args(argc, argv);
  std::vector<int> node_counts;
  int qubits;
  if (args.has("full")) {
    node_counts = args.get_int_list("nodes", {500, 1000, 1500, 2000, 2500});
    qubits = args.get_int("qubits", 16);
  } else {
    node_counts = args.get_int_list("nodes", {100, 200, 300, 400, 500});
    qubits = args.get_int("qubits", 12);
  }
  const double prob = args.get_double("prob", 0.1);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 4));
  // "Including more statistics" (paper §5): average each series over
  // several independent graph instances per node count.
  const int instances = args.get_int("instances", args.has("full") ? 1 : 3);
  const int restarts = args.get_int("restarts", 1);
  const int workers = args.get_int("workers", 4);
  args.reject_unknown();
  // The leaf QAOA configuration of the "QAOA" and "Best" series.
  const std::string qaoa_spec =
      "qaoa:p=2,iters=40,restarts=" + std::to_string(restarts);

  std::printf("=== Fig. 4 reproduction: QAOA^2 on large unweighted graphs "
              "(p_edge = %.2f, device = %d qubits, %d instance(s) per "
              "point, %d QAOA restart(s)) ===\n\n",
              prob, qubits, instances, restarts);

  qq::util::Table absolute({"nodes", "edges", "Random", "Classic", "QAOA",
                            "Best", "GW(full)", "seconds"});
  qq::util::Table relative({"nodes", "Random", "Classic", "QAOA", "Best",
                            "GW(full)"});

  bool gw_always_best = true;
  bool best_never_below_single = true;
  std::vector<double> gw_over_qaoa;
  // Per-series wall clock accumulated across every node count and instance,
  // so a restart A/B can attribute its delta to the series that actually
  // runs QAOA leaf solves instead of reading it off the combined row time.
  double qaoa_seconds = 0.0, classic_seconds = 0.0, best_seconds = 0.0;

  for (const int nodes : node_counts) {
    qq::util::Timer timer;
    double qaoa_value = 0.0, classic_value = 0.0, best_value = 0.0,
           gw_value = 0.0, random_value = 0.0;
    std::size_t edges = 0;
    for (int inst = 0; inst < instances; ++inst) {
      qq::util::Rng rng(seed + static_cast<std::uint64_t>(nodes) +
                        1000ULL * static_cast<std::uint64_t>(inst));
      const auto g = qq::graph::erdos_renyi(
          static_cast<qq::graph::NodeId>(nodes), prob, rng);
      edges += g.num_edges();

      qq::qaoa2::Qaoa2Options opts;
      opts.max_qubits = qubits;
      opts.merge_solver_spec = "gw";
      opts.seed = seed + static_cast<std::uint64_t>(inst);
      opts.engine = qq::sched::EngineOptions{workers, 4};

      // The figure's three QAOA^2 series and its two whole-graph
      // references, all named through the solver registry.
      qq::util::Timer series_timer;
      opts.sub_solver_spec = qaoa_spec;
      qaoa_value += qq::qaoa2::solve_qaoa2(g, opts).cut.value;
      qaoa_seconds += series_timer.seconds();
      series_timer = qq::util::Timer();
      opts.sub_solver_spec = "gw";
      classic_value += qq::qaoa2::solve_qaoa2(g, opts).cut.value;
      classic_seconds += series_timer.seconds();
      series_timer = qq::util::Timer();
      opts.sub_solver_spec = "best:" + qaoa_spec + "|gw";
      best_value += qq::qaoa2::solve_qaoa2(g, opts).cut.value;
      best_seconds += series_timer.seconds();

      const auto& registry = qq::solver::SolverRegistry::global();
      gw_value += registry.make("gw")
                      ->solve({&g, seed + 9 + static_cast<std::uint64_t>(inst)})
                      .cut.value;
      random_value +=
          registry.make("random")
              ->solve({&g, seed + 17 + static_cast<std::uint64_t>(inst)})
              .cut.value;
    }
    qaoa_value /= instances;
    classic_value /= instances;
    best_value /= instances;
    gw_value /= instances;
    random_value /= instances;
    edges /= static_cast<std::size_t>(instances);

    absolute.add_row(
        {std::to_string(nodes), std::to_string(edges),
         qq::util::format_double(random_value, 1),
         qq::util::format_double(classic_value, 1),
         qq::util::format_double(qaoa_value, 1),
         qq::util::format_double(best_value, 1),
         qq::util::format_double(gw_value, 1),
         qq::util::format_double(timer.seconds(), 1)});
    relative.add_row({std::to_string(nodes),
                      qq::util::format_double(random_value / qaoa_value, 3),
                      qq::util::format_double(classic_value / qaoa_value, 3),
                      "1.000",
                      qq::util::format_double(best_value / qaoa_value, 3),
                      qq::util::format_double(gw_value / qaoa_value, 3)});

    gw_always_best = gw_always_best &&
                     gw_value >= std::max({qaoa_value, classic_value,
                                           best_value, random_value});
    best_never_below_single =
        best_never_below_single &&
        best_value >= std::min(qaoa_value, classic_value) - 1e-9;
    gw_over_qaoa.push_back(gw_value / qaoa_value);
  }

  std::printf("series wall clock (all node counts): QAOA %.2fs, Classic "
              "%.2fs, Best %.2fs\n\n",
              qaoa_seconds, classic_seconds, best_seconds);
  std::printf("absolute cut values:\n%s\n", absolute.str().c_str());
  std::printf("relative to the QAOA series (as plotted in Fig. 4):\n%s\n",
              relative.str().c_str());

  std::printf("check (paper: GW on full graph superior at these sizes): %s\n",
              gw_always_best ? "REPRODUCED" : "NOT reproduced");
  std::printf("check (paper: Best comparable to single-method runs): %s\n",
              best_never_below_single ? "REPRODUCED" : "NOT reproduced");
  if (gw_over_qaoa.size() >= 2) {
    std::printf("check (paper: GW advantage diminishes with node count): "
                "GW/QAOA ratio %.3f at n=%d -> %.3f at n=%d (%s)\n",
                gw_over_qaoa.front(), node_counts.front(),
                gw_over_qaoa.back(), node_counts.back(),
                gw_over_qaoa.back() < gw_over_qaoa.front()
                    ? "REPRODUCED"
                    : "not monotone on this run");
  }
  std::printf("\nNote: the paper's GW aborts beyond 2000 nodes (cvxpy/Eigen "
              "triplet issue); the mixing-method SDP here has no such "
              "failure point — recorded as a deliberate deviation.\n");
  return 0;
}
