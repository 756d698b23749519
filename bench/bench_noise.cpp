// NISQ noise sweep: how depolarizing gate noise and readout error degrade
// QAOA MaxCut quality. The paper's §1 motivates the whole hybrid workflow
// with NISQ decoherence limits but evaluates noiselessly; this harness
// supplies the missing curve for the library's noise model.
//
//   ./bench_noise [--nodes 10] [--layers 3] [--trajectories 64]

#include <cstdio>
#include <string>

#include "maxcut/exact.hpp"
#include "qaoa/cost_table.hpp"
#include "qaoa/qaoa.hpp"
#include "qcircuit/ansatz.hpp"
#include "qcircuit/noise.hpp"
#include "qgraph/generators.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  const qq::util::Args args(argc, argv);
  const auto nodes = static_cast<qq::graph::NodeId>(args.get_int("nodes", 10));
  const int layers = args.get_int("layers", 3);
  const int trajectories = args.get_int("trajectories", 64);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 18));
  args.reject_unknown();

  qq::util::Rng rng(seed);
  const auto g = qq::graph::erdos_renyi(nodes, 0.4, rng);
  const auto table_values = qq::qaoa::build_cut_table(g);
  const double exact = qq::maxcut::solve_exact(g).value;
  const double random_guess = g.total_weight() / 2.0;

  // Optimize noiselessly once, then replay the tuned circuit under noise —
  // the standard "train ideal, deploy noisy" NISQ experiment.
  qq::qaoa::QaoaOptions qopts;
  qopts.layers = layers;
  qopts.max_iterations = 120;
  qopts.seed = seed;
  const qq::qaoa::QaoaSolver solver(g);
  const auto tuned = solver.optimize(qopts);
  const auto circuit = qq::circuit::qaoa_ansatz(
      g, qq::circuit::unpack_angles(tuned.parameters));

  std::printf("=== NISQ noise sweep on a tuned QAOA circuit ===\n");
  std::printf("%d nodes, %zu edges, p = %d | ideal F_p = %.3f, exact optimum "
              "= %.3f, random guess = %.3f\n\n",
              g.num_nodes(), g.num_edges(), layers, tuned.expectation, exact,
              random_guess);

  qq::util::Table out({"p1q", "p2q", "readout", "<H_C>", "frac of ideal",
                       "shot <H_C>", "best sampled cut"});
  struct Point {
    double p1, p2, ro;
  };
  const Point points[] = {{0.0, 0.0, 0.0},     {0.001, 0.005, 0.0},
                          {0.005, 0.02, 0.0},  {0.02, 0.05, 0.0},
                          {0.05, 0.15, 0.0},   {0.0, 0.0, 0.02},
                          {0.0, 0.0, 0.1},     {0.005, 0.02, 0.02}};
  for (const Point& pt : points) {
    qq::circuit::NoiseModel noise;
    noise.depolarizing_1q = pt.p1;
    noise.depolarizing_2q = pt.p2;
    noise.readout_flip = pt.ro;
    qq::util::Rng noise_rng(seed + 99);
    const double expectation = qq::circuit::noisy_expectation_diagonal(
        circuit, noise, table_values, trajectories, noise_rng);
    qq::circuit::NoisySamplingOptions sopts;
    sopts.shots = 4096;
    sopts.trajectories = trajectories;
    const auto shots =
        qq::circuit::sample_noisy(circuit, noise, sopts, noise_rng);
    double best_cut = 0.0;
    double shot_sum = 0.0;
    for (const auto s : shots) {
      best_cut = std::max(best_cut, table_values[s]);
      shot_sum += table_values[s];
    }
    // The shot estimate includes readout flips (the statevector
    // expectation cannot): this is the number a real device reports.
    const double shot_expectation = shot_sum / static_cast<double>(shots.size());
    const double ideal_span = tuned.expectation - random_guess;
    out.add_row({qq::util::format_double(pt.p1, 3),
                 qq::util::format_double(pt.p2, 3),
                 qq::util::format_double(pt.ro, 2),
                 qq::util::format_double(expectation, 3),
                 qq::util::format_double(
                     ideal_span > 0
                         ? (expectation - random_guess) / ideal_span
                         : 1.0,
                     3),
                 qq::util::format_double(shot_expectation, 3),
                 qq::util::format_double(best_cut, 1)});
  }
  std::printf("%s\n", out.str().c_str());
  std::printf("expected shape: <H_C> decays from the ideal value toward the "
              "random-guess baseline W/2 as depolarizing rates grow, while "
              "the best *sampled* cut is far more robust (a few good shots "
              "survive) — the practical reason QAOA tolerates NISQ noise "
              "for optimization better than for expectation estimation.\n");
  return 0;
}
