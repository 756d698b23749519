// Cross-module integration tests: the full paper pipeline at test scale —
// grid-search knowledge base, hybrid QAOA^2 vs classical baselines, and
// the ML selection layer driven by real solver outcomes.

#include <gtest/gtest.h>

#include <algorithm>

#include "maxcut/baselines.hpp"
#include "maxcut/exact.hpp"
#include "ml/features.hpp"
#include "ml/knn.hpp"
#include "ml/logreg.hpp"
#include "qaoa/qaoa.hpp"
#include "qaoa2/qaoa2.hpp"
#include "qgraph/generators.hpp"
#include "sdp/gw.hpp"
#include "util/rng.hpp"

namespace qq {
namespace {

TEST(Integration, Fig4StyleOrderingOnMediumGraph) {
  // Random < {QAOA^2 variants} and everything <= exact is not checkable at
  // 60 nodes; instead check the orderings the paper reports: all methods
  // beat the random partition, and Best >= min(QAOA-only, GW-only).
  util::Rng rng(1);
  const auto g = graph::erdos_renyi(60, 0.1, rng);

  util::Rng rand_rng(2);
  const double random_value =
      maxcut::randomized_partitioning(g, rand_rng).value;

  qaoa2::Qaoa2Options opts;
  opts.max_qubits = 8;
  opts.merge_solver_spec = "gw";
  opts.seed = 3;

  opts.sub_solver_spec = "qaoa:p=2,iters=40";
  const double all_qaoa = qaoa2::solve_qaoa2(g, opts).cut.value;
  opts.sub_solver_spec = "gw";
  const double all_gw = qaoa2::solve_qaoa2(g, opts).cut.value;
  opts.sub_solver_spec = "best:qaoa:p=2,iters=40|gw";
  const double best = qaoa2::solve_qaoa2(g, opts).cut.value;

  sdp::GwOptions gw_opts;
  gw_opts.seed = 4;
  const double gw_full = sdp::goemans_williamson(g, gw_opts).best.value;

  EXPECT_GT(all_qaoa, random_value);
  EXPECT_GT(all_gw, random_value);
  EXPECT_GT(best, random_value);
  EXPECT_GT(gw_full, random_value);
  EXPECT_GE(best, std::min(all_qaoa, all_gw) - 1e-9);
  // Paper: GW on the whole graph dominates the partitioned schemes at
  // these sizes.
  EXPECT_GE(gw_full, std::max({all_qaoa, all_gw}) * 0.95);
}

TEST(Integration, GridSearchKnowledgeBaseProportionsAreSane) {
  // Miniature Fig. 3: sweep (p, rhobeg) on a few graphs, record the
  // QAOA-vs-GW statistics, check they are proportions.
  util::Rng rng(5);
  int qaoa_wins = 0, near_misses = 0, total = 0;
  for (int node_count : {8, 10}) {
    for (double edge_p : {0.3, 0.5}) {
      const auto g = graph::erdos_renyi(node_count, edge_p, rng);
      if (g.num_edges() == 0) continue;
      sdp::GwOptions gw_opts;
      gw_opts.seed = 17;
      const double gw = sdp::goemans_williamson(g, gw_opts).average_value;
      for (int p : {1, 2}) {
        for (double rhobeg : {0.2, 0.5}) {
          qaoa::QaoaOptions qopts;
          qopts.layers = p;
          qopts.rhobeg = rhobeg;
          qopts.max_iterations = 30;
          qopts.seed = 19;
          const double value = qaoa::solve_qaoa(g, qopts).cut.value;
          ++total;
          if (value > gw) {
            ++qaoa_wins;
          } else if (value >= 0.95 * gw) {
            ++near_misses;
          }
        }
      }
    }
  }
  ASSERT_GT(total, 0);
  EXPECT_LE(qaoa_wins + near_misses, total);
  // At these tiny sizes QAOA lands within 95% of GW most of the time.
  EXPECT_GT(qaoa_wins + near_misses, total / 4);
}

TEST(Integration, SelectorTrainsOnRealOutcomesAndPredicts) {
  // Build a labelled set (QAOA beat GW?) from real runs on small graphs,
  // train the logistic selector, and check it produces a usable accuracy
  // on its training distribution (smoke-level, not a benchmark).
  util::Rng rng(7);
  std::vector<std::vector<double>> X;
  std::vector<int> y;
  for (int i = 0; i < 24; ++i) {
    const int n = 6 + (i % 3) * 2;
    const double p = (i % 2) ? 0.25 : 0.6;
    const auto g = graph::erdos_renyi(n, p, rng,
                                      (i % 4 < 2) ? graph::WeightMode::kUnit
                                                  : graph::WeightMode::kUniform01);
    if (g.num_edges() == 0) continue;
    qaoa::QaoaOptions qopts;
    qopts.layers = 2;
    qopts.max_iterations = 30;
    qopts.seed = static_cast<std::uint64_t>(i);
    const double qaoa_value = qaoa::solve_qaoa(g, qopts).cut.value;
    sdp::GwOptions gw_opts;
    gw_opts.seed = static_cast<std::uint64_t>(i) + 100;
    const double gw_value = sdp::goemans_williamson(g, gw_opts).average_value;
    const auto f = ml::graph_features(g);
    X.emplace_back(f.begin(), f.end());
    y.push_back(qaoa_value > gw_value ? 1 : 0);
  }
  ASSERT_GE(X.size(), 10u);
  ml::LogisticRegression model;
  model.fit(X, y);
  // Not a performance claim — only that the end-to-end plumbing holds and
  // the model beats always-predict-the-minority-class on its training set.
  int majority = 0;
  for (int label : y) majority += label;
  const double majority_rate =
      std::max(majority, static_cast<int>(y.size()) - majority) /
      static_cast<double>(y.size());
  EXPECT_GE(model.accuracy(X, y) + 1e-9, majority_rate * 0.9);
}

TEST(Integration, WarmStartReducesOrMatchesIterationsToQuality) {
  // Store optimized parameters for a family of graphs, then check the kNN
  // prediction gives a good starting expectation on a fresh instance.
  util::Rng rng(9);
  ml::ParameterKnn store;
  const int p = 2;
  for (int i = 0; i < 6; ++i) {
    const auto g = graph::erdos_renyi(10, 0.3, rng);
    if (g.num_edges() == 0) continue;
    qaoa::QaoaOptions qopts;
    qopts.layers = p;
    qopts.max_iterations = 80;
    qopts.seed = static_cast<std::uint64_t>(i);
    const auto r = qaoa::solve_qaoa(g, qopts);
    const auto f = ml::graph_features(g);
    store.add({f.begin(), f.end()}, r.parameters);
  }
  ASSERT_GE(store.size(), 3u);

  const auto fresh = graph::erdos_renyi(10, 0.3, rng);
  const auto f = ml::graph_features(fresh);
  const auto warm = store.predict({f.begin(), f.end()}, 3);
  ASSERT_EQ(warm.size(), static_cast<std::size_t>(2 * p));

  const qaoa::QaoaSolver solver(fresh);
  const double warm_expectation =
      solver.expectation(circuit::unpack_angles(warm));
  // The warm start must beat the uninformed gamma=beta=0 point (= W/2).
  EXPECT_GT(warm_expectation, fresh.total_weight() / 2.0);
}

TEST(Integration, Qaoa2WithEngineMatchesSequentialSeededRun) {
  // The engine parallelizes sub-graph solves, but per-part seeds make the
  // result independent of execution order.
  util::Rng rng(11);
  const auto g = graph::erdos_renyi(36, 0.15, rng);
  qaoa2::Qaoa2Options opts;
  opts.max_qubits = 6;
  opts.sub_solver_spec = "qaoa:p=2,iters=30";
  opts.merge_solver_spec = "exact";
  opts.seed = 13;
  opts.engine = sched::EngineOptions{4, 4};
  const auto parallel = qaoa2::solve_qaoa2(g, opts);
  opts.engine = sched::EngineOptions{1, 1};
  const auto serial = qaoa2::solve_qaoa2(g, opts);
  EXPECT_DOUBLE_EQ(parallel.cut.value, serial.cut.value);
  EXPECT_EQ(parallel.cut.assignment, serial.cut.assignment);
}

TEST(Integration, ExactOptimumDominatesEveryHeuristicAtSmallScale) {
  util::Rng rng(13);
  const auto g = graph::erdos_renyi(16, 0.3, rng,
                                    graph::WeightMode::kUniform01);
  const double exact = maxcut::solve_exact(g).value;

  qaoa::QaoaOptions qopts;
  qopts.layers = 3;
  qopts.seed = 1;
  EXPECT_LE(qaoa::solve_qaoa(g, qopts).cut.value, exact + 1e-9);

  sdp::GwOptions gw_opts;
  EXPECT_LE(sdp::goemans_williamson(g, gw_opts).best.value, exact + 1e-9);

  qaoa2::Qaoa2Options o2;
  o2.max_qubits = 6;
  o2.sub_solver_spec = "best:qaoa:p=2,iters=30|gw";
  o2.merge_solver_spec = "exact";
  EXPECT_LE(qaoa2::solve_qaoa2(g, o2).cut.value, exact + 1e-9);

  util::Rng rr(14);
  EXPECT_LE(maxcut::one_exchange_restarts(g, rr, 5).value, exact + 1e-9);
}

}  // namespace
}  // namespace qq
