// Run-time method selection (the paper's §5 outlook, after Moussa et al.):
// build a knowledge base by racing a quantum solver against a classical
// one on many small graphs, train the logistic selector on graph features,
// then use the prediction to route fresh sub-graphs to the better solver.
//
// Both contenders are registry specs, so any backend pairing can be raced:
//
//   ./method_selection [--train 40] [--test 12] [--seed 3]
//                      [--quantum qaoa:p=2,iters=40] [--classical gw]
//                      [--list-solvers]
//
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "ml/features.hpp"
#include "ml/logreg.hpp"
#include "qgraph/generators.hpp"
#include "solver/registry.hpp"
#include "util/cli.hpp"

namespace {

struct Labelled {
  std::vector<double> features;
  int qaoa_wins = 0;
  double qaoa_value = 0.0;
  double gw_value = 0.0;
};

Labelled race(const qq::solver::Solver& quantum,
              const qq::solver::Solver& classical, const qq::graph::Graph& g,
              std::uint64_t seed) {
  const double qaoa_value = quantum.solve({&g, seed}).cut.value;
  // The classical score is GW's paper statistic — the average over the
  // hyperplane slicings — when the backend reports it; the best cut
  // otherwise.
  const auto c = classical.solve({&g, seed + 1});
  const double gw_value = c.metric("average_value", c.cut.value);
  const auto f = qq::ml::graph_features(g);
  return Labelled{{f.begin(), f.end()},
                  qaoa_value > gw_value ? 1 : 0,
                  qaoa_value,
                  gw_value};
}

qq::graph::Graph random_instance(qq::util::Rng& rng, int index) {
  const auto n = static_cast<qq::graph::NodeId>(7 + index % 5);
  const double p = 0.15 + 0.1 * (index % 4);
  const auto mode = (index % 2) ? qq::graph::WeightMode::kUniform01
                                : qq::graph::WeightMode::kUnit;
  return qq::graph::erdos_renyi(n, p, rng, mode);
}

}  // namespace

int main(int argc, char** argv) {
  const qq::util::Args args(argc, argv);
  const bool list_solvers = args.has("list-solvers");
  const int train_count = args.get_int("train", 40);
  const int test_count = args.get_int("test", 12);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 3));
  const std::string quantum_spec = args.get("quantum", "qaoa:p=2,iters=40");
  const std::string classical_spec = args.get("classical", "gw");
  args.reject_unknown();
  if (list_solvers) {
    std::printf("%s", qq::solver::SolverRegistry::global().help().c_str());
    return 0;
  }
  qq::util::Rng rng(seed);

  qq::solver::SolverPtr quantum, classical;
  try {
    const auto& registry = qq::solver::SolverRegistry::global();
    quantum = registry.make(quantum_spec);
    classical = registry.make(classical_spec);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n(run with --list-solvers for the registry)\n",
                 e.what());
    return 1;
  }

  // 1. Knowledge base: label each instance with "did the quantum contender
  //    beat the classical one".
  std::printf("building knowledge base (%d instances): %s vs %s...\n",
              train_count, quantum_spec.c_str(), classical_spec.c_str());
  std::vector<std::vector<double>> X;
  std::vector<int> y;
  for (int i = 0; i < train_count; ++i) {
    const auto g = random_instance(rng, i);
    if (g.num_edges() == 0) continue;
    const Labelled row = race(*quantum, *classical, g,
                              seed + static_cast<std::uint64_t>(i));
    X.push_back(row.features);
    y.push_back(row.qaoa_wins);
  }
  int wins = 0;
  for (const int label : y) wins += label;
  std::printf("  %s won %d / %zu races\n", quantum_spec.c_str(), wins,
              y.size());

  // 2. Train the selector.
  qq::ml::LogisticRegression model;
  model.fit(X, y);
  std::printf("  training accuracy: %.2f\n", model.accuracy(X, y));

  // 3. Use it: for fresh instances, route to the predicted-better method
  //    and compare against always-quantum / always-classical / oracle.
  double routed = 0.0, always_qaoa = 0.0, always_gw = 0.0, oracle = 0.0;
  for (int i = 0; i < test_count; ++i) {
    const auto g = random_instance(rng, i + 1000);
    if (g.num_edges() == 0) continue;
    const Labelled row = race(*quantum, *classical, g,
                              seed + 9000 + static_cast<std::uint64_t>(i));
    const bool pick_qaoa = model.predict(row.features) == 1;
    routed += pick_qaoa ? row.qaoa_value : row.gw_value;
    always_qaoa += row.qaoa_value;
    always_gw += row.gw_value;
    oracle += std::max(row.qaoa_value, row.gw_value);
  }
  std::printf("\ntotal cut over %d fresh instances:\n", test_count);
  std::printf("  always %-12s: %.3f\n", quantum_spec.c_str(), always_qaoa);
  std::printf("  always %-12s: %.3f\n", classical_spec.c_str(), always_gw);
  std::printf("  ML-routed   : %.3f\n", routed);
  std::printf("  oracle      : %.3f\n", oracle);
  return 0;
}
