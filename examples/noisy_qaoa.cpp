// QAOA under NISQ noise: tune the angles on the ideal simulator, then
// execute the tuned circuit under depolarizing + readout noise and watch
// what survives — the decoherence story behind the paper's hybrid-workflow
// motivation (§1).
//
//   ./noisy_qaoa [--nodes 10] [--layers 3] [--p2q 0.02] [--readout 0.02]

#include <algorithm>
#include <cstdio>

#include "maxcut/exact.hpp"
#include "qaoa/cost_table.hpp"
#include "qaoa/qaoa.hpp"
#include "qcircuit/ansatz.hpp"
#include "qcircuit/noise.hpp"
#include "qcircuit/passes.hpp"
#include "qgraph/generators.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  const qq::util::Args args(argc, argv);
  const auto nodes = static_cast<qq::graph::NodeId>(args.get_int("nodes", 10));
  const int layers = args.get_int("layers", 3);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 21));
  qq::circuit::NoiseModel noise;
  noise.depolarizing_1q = args.get_double("p1q", 0.005);
  noise.depolarizing_2q = args.get_double("p2q", 0.02);
  noise.readout_flip = args.get_double("readout", 0.02);
  args.reject_unknown();

  qq::util::Rng rng(seed);
  const auto g = qq::graph::erdos_renyi(nodes, 0.4, rng);
  const double exact = qq::maxcut::solve_exact(g).value;

  // 1. Tune noiselessly.
  qq::qaoa::QaoaOptions qopts;
  qopts.layers = layers;
  qopts.max_iterations = 120;
  qopts.seed = seed;
  const qq::qaoa::QaoaSolver solver(g);
  const auto tuned = solver.optimize(qopts);
  std::printf("graph: %d nodes, %zu edges | exact optimum %.1f | ideal F_p "
              "%.3f\n",
              g.num_nodes(), g.num_edges(), exact, tuned.expectation);

  // 2. Lower through the synthesis pipeline (fewer gates = less noise).
  const auto naive = qq::circuit::qaoa_ansatz(
      g, qq::circuit::unpack_angles(tuned.parameters));
  const auto optimized = qq::circuit::synthesize(naive);
  std::printf("circuit: %zu gates naive -> %zu after synthesis (2q depth %d "
              "-> %d)\n\n",
              naive.size(), optimized.size(), naive.stats().depth_2q,
              optimized.stats().depth_2q);

  // 3. Execute under noise.
  const auto table = qq::qaoa::build_cut_table(g);

  qq::util::Rng noise_rng(seed + 1);
  qq::circuit::NoisySamplingOptions sopts;
  sopts.shots = 4096;
  sopts.trajectories = 64;
  const auto shots =
      qq::circuit::sample_noisy(optimized, noise, sopts, noise_rng);
  double mean_cut = 0.0, best_cut = 0.0;
  for (const auto s : shots) {
    mean_cut += table[s];
    best_cut = std::max(best_cut, table[s]);
  }
  mean_cut /= static_cast<double>(shots.size());

  std::printf("noise: p1q=%.3f p2q=%.3f readout=%.3f, %d shots over %d "
              "trajectories\n",
              noise.depolarizing_1q, noise.depolarizing_2q,
              noise.readout_flip, sopts.shots, sopts.trajectories);
  std::printf("  mean sampled cut : %.3f  (ideal F_p %.3f, random guess "
              "%.3f)\n",
              mean_cut, tuned.expectation, g.total_weight() / 2.0);
  std::printf("  best sampled cut : %.1f  (exact optimum %.1f)\n", best_cut,
              exact);
  std::printf("\ntakeaway: expectation estimates degrade quickly with noise, "
              "but the best-of-4096-shots answer usually survives — MaxCut "
              "asks for one good string, not an accurate mean.\n");
  return 0;
}
