// Tests for the QAOA driver: cut-table correctness, fast-path vs
// circuit-path agreement, optimization behaviour, solution extraction, the
// paper's iteration schedule, and RQAOA.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "maxcut/exact.hpp"
#include "qaoa/cost_table.hpp"
#include "qaoa/qaoa.hpp"
#include "qaoa/rqaoa.hpp"
#include "qcircuit/ansatz.hpp"
#include "qcircuit/execute.hpp"
#include "qsim/measure.hpp"
#include "qgraph/generators.hpp"
#include "test_isa.hpp"
#include "util/rng.hpp"

namespace qq::qaoa {
namespace {

using graph::Graph;
using graph::NodeId;

// ------------------------------------------------------------ cut table ----

TEST(CostTable, MatchesCutValueForEveryState) {
  util::Rng rng(1);
  const Graph g =
      graph::erdos_renyi(10, 0.4, rng, graph::WeightMode::kUniform01);
  const auto table = build_cut_table(g);
  ASSERT_EQ(table.size(), std::size_t{1} << 10);
  for (std::uint64_t bits = 0; bits < table.size(); ++bits) {
    EXPECT_NEAR(table[bits],
                maxcut::cut_value(g, maxcut::assignment_from_bits(bits, 10)),
                1e-9);
  }
}

TEST(CostTable, MaxEntryIsExactOptimum) {
  util::Rng rng(2);
  const Graph g = graph::erdos_renyi(12, 0.3, rng);
  const QaoaSolver solver(g);
  EXPECT_NEAR(solver.exact_optimum(), maxcut::solve_exact(g).value, 1e-9);
}

// ------------------------------------------- fast path == circuit path ----

class FastPathEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(FastPathEquivalence, DiagonalSweepMatchesGateByGateAnsatz) {
  const int seed = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(seed) + 100);
  const Graph g =
      graph::erdos_renyi(7, 0.45, rng, graph::WeightMode::kUniform01);
  circuit::QaoaAngles angles;
  const int p = 1 + seed % 3;
  for (int l = 0; l < p; ++l) {
    angles.gammas.push_back(util::uniform(rng, -1.5, 1.5));
    angles.betas.push_back(util::uniform(rng, -1.5, 1.5));
  }
  const QaoaSolver solver(g);
  const sim::StateVector fast = solver.state(angles);
  const sim::StateVector slow = circuit::run(circuit::qaoa_ansatz(g, angles));
  // The gate decomposition drops a global phase; compare |<a|b>|.
  std::complex<double> inner{0, 0};
  for (std::size_t i = 0; i < fast.size(); ++i) {
    inner += std::conj(fast.data()[i]) * slow.data()[i];
  }
  EXPECT_NEAR(std::abs(inner), 1.0, 1e-9);
  // And the expectations agree exactly.
  const auto table = solver.cut_table();
  EXPECT_NEAR(sim::expectation_diagonal(fast, table),
              sim::expectation_diagonal(slow, table), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastPathEquivalence, ::testing::Range(0, 8));

// ------------------------------------------------------------ expectation ----

TEST(Expectation, NeverExceedsExactOptimum) {
  util::Rng rng(5);
  const Graph g = graph::erdos_renyi(9, 0.4, rng);
  const QaoaSolver solver(g);
  for (int trial = 0; trial < 20; ++trial) {
    circuit::QaoaAngles angles;
    angles.gammas = {util::uniform(rng, -2.0, 2.0)};
    angles.betas = {util::uniform(rng, -2.0, 2.0)};
    EXPECT_LE(solver.expectation(angles), solver.exact_optimum() + 1e-9);
    EXPECT_GE(solver.expectation(angles), 0.0);
  }
}

TEST(Expectation, ZeroAnglesGiveHalfTotalWeight) {
  // gamma = beta = 0 leaves |+>^n: every edge is cut with probability 1/2.
  util::Rng rng(6);
  const Graph g =
      graph::erdos_renyi(8, 0.5, rng, graph::WeightMode::kUniform01);
  const QaoaSolver solver(g);
  circuit::QaoaAngles zero;
  zero.gammas = {0.0};
  zero.betas = {0.0};
  EXPECT_NEAR(solver.expectation(zero), g.total_weight() / 2.0, 1e-9);
}

TEST(Expectation, SampledEstimateConvergesToExact) {
  util::Rng rng(7);
  const Graph g = graph::erdos_renyi(8, 0.4, rng);
  const QaoaSolver solver(g);
  circuit::QaoaAngles angles;
  angles.gammas = {0.4};
  angles.betas = {0.3};
  const double exact = solver.expectation(angles);
  util::Rng shot_rng(8);
  const double sampled = solver.sampled_expectation(angles, 60000, shot_rng);
  EXPECT_NEAR(sampled, exact, 0.1);
  EXPECT_THROW(solver.sampled_expectation(angles, 0, shot_rng),
               std::invalid_argument);
}

// ------------------------------------------------ analytic p = 1 oracle ----

/// F_1(gamma, beta) of an unweighted graph in closed form: Wang, Hadfield,
/// Jiang and Rieffel, Phys. Rev. A 97, 022304 (2018), Thm. 1. In this
/// solver's convention (cost layer e^{-i gamma Cut}, mixer RX(2 beta) on
/// every qubit) an edge (u, v) whose ends have d_u and d_v other neighbours
/// and lambda common neighbours contributes
///   1/2 + 1/4 sin(4 beta) sin(gamma) (cos^d_u gamma + cos^d_v gamma)
///       - 1/4 sin^2(2 beta) cos^(d_u + d_v - 2 lambda) gamma
///         (1 - cos^lambda 2 gamma).
/// No state vector is involved, so it checks the simulator from outside.
double analytic_f1(const Graph& g, double gamma, double beta) {
  const double c = std::cos(gamma);
  const double s2b = std::sin(2.0 * beta);
  double total = 0.0;
  for (const graph::Edge& e : g.edges()) {
    const int du = static_cast<int>(g.degree(e.u)) - 1;
    const int dv = static_cast<int>(g.degree(e.v)) - 1;
    int lambda = 0;
    for (const auto& [w, weight] : g.neighbors(e.u)) {
      (void)weight;
      if (w != e.v && g.has_edge(e.v, w)) ++lambda;
    }
    total += 0.5 +
             0.25 * std::sin(4.0 * beta) * std::sin(gamma) *
                 (std::pow(c, du) + std::pow(c, dv)) -
             0.25 * s2b * s2b * std::pow(c, du + dv - 2 * lambda) *
                 (1.0 - std::pow(std::cos(2.0 * gamma), lambda));
  }
  return total;
}

/// The 3-cube and the Petersen graph: 3-regular and triangle-free.
std::vector<Graph> triangle_free_cubic_graphs() {
  Graph cube(8);
  for (NodeId u = 0; u < 8; ++u) {
    for (NodeId bit = 1; bit < 8; bit <<= 1) {
      if ((u & bit) == 0) cube.add_edge(u, u | bit);
    }
  }
  Graph petersen(10);
  for (NodeId i = 0; i < 5; ++i) {
    petersen.add_edge(i, (i + 1) % 5);          // outer cycle
    petersen.add_edge(5 + i, 5 + (i + 2) % 5);  // inner pentagram
    petersen.add_edge(i, 5 + i);                // spokes
  }
  return {cube, petersen};
}

/// Unweighted ER(n, 0.4) graphs at 8..20 nodes: the oracle's workload.
std::vector<Graph> oracle_graphs() {
  util::Rng rng(20180222);
  std::vector<Graph> out;
  for (NodeId n = 8; n <= 20; n += 2) {
    out.push_back(graph::erdos_renyi(n, 0.4, rng));
  }
  return out;
}

TEST(AnalyticP1, FarhiRatioOnTriangleFreeCubicGraphs) {
  // Self-check of the oracle: Farhi, Goldstone and Gutmann (arXiv:1411.4028)
  // show p = 1 reaches F_1 / |E| = 1/2 + 1/(3 sqrt 3) = 0.6925 on every
  // triangle-free 3-regular graph. Found here by a dense (gamma, beta) grid.
  for (const Graph& g : triangle_free_cubic_graphs()) {
    double best = 0.0;
    double best_gamma = 0.0;
    double best_beta = 0.0;
    for (int i = 0; i <= 400; ++i) {
      const double gamma = std::numbers::pi / 2.0 * i / 400.0;
      for (int j = 0; j <= 100; ++j) {
        const double beta = std::numbers::pi / 4.0 * j / 100.0;
        const double f = analytic_f1(g, gamma, beta);
        if (f > best) {
          best = f;
          best_gamma = gamma;
          best_beta = beta;
        }
      }
    }
    const double ratio = best / static_cast<double>(g.num_edges());
    EXPECT_NEAR(ratio, 0.6925, 1e-4) << g.num_nodes() << " nodes";
    EXPECT_LE(ratio, 0.5 + 1.0 / (3.0 * std::sqrt(3.0)) + 1e-12);
    // The simulator agrees at the grid optimum.
    circuit::QaoaAngles angles;
    angles.gammas = {best_gamma};
    angles.betas = {best_beta};
    EXPECT_NEAR(QaoaSolver(g).expectation(angles), best, 1e-11);
  }
}

TEST(AnalyticP1, FlatExpectationMatchesClosedForm) {
  testing::IsaGuard guard;
  util::Rng rng(97);
  for (const Graph& g : oracle_graphs()) {
    const QaoaSolver solver(g);
    for (int trial = 0; trial < 2; ++trial) {
      circuit::QaoaAngles angles;
      angles.gammas = {util::uniform(rng, -1.5, 1.5)};
      angles.betas = {util::uniform(rng, -1.5, 1.5)};
      const double want = analytic_f1(g, angles.gammas[0], angles.betas[0]);
      for (const sim::simd::Isa isa : testing::available_isas()) {
        sim::simd::set_isa(isa);
        EXPECT_NEAR(solver.expectation(angles), want,
                    1e-12 * static_cast<double>(g.num_edges()))
            << g.num_nodes() << " qubits under " << sim::simd::isa_name(isa);
      }
    }
  }
}

TEST(AnalyticP1, BatchedExpectationsMatchClosedForm) {
  testing::IsaGuard guard;
  util::Rng rng(98);
  for (const Graph& g : oracle_graphs()) {
    const QaoaSolver solver(g);
    std::vector<std::vector<double>> points(3);
    for (std::vector<double>& x : points) {
      x = {util::uniform(rng, -1.5, 1.5), util::uniform(rng, -1.5, 1.5)};
    }
    for (const sim::simd::Isa isa : testing::available_isas()) {
      sim::simd::set_isa(isa);
      const std::vector<double> got = solver.expectations(points);
      ASSERT_EQ(got.size(), points.size());
      for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_NEAR(got[i], analytic_f1(g, points[i][0], points[i][1]),
                    1e-12 * static_cast<double>(g.num_edges()))
            << g.num_nodes() << " qubits under " << sim::simd::isa_name(isa);
        EXPECT_EQ(got[i],
                  solver.expectation(circuit::unpack_angles(points[i])));
      }
    }
  }
}

// ----------------------------------------------------------- optimization ----

TEST(Optimize, ImprovesOverZeroAngleBaseline) {
  util::Rng rng(9);
  const Graph g = graph::erdos_renyi(10, 0.35, rng);
  const QaoaSolver solver(g);
  QaoaOptions opts;
  opts.layers = 3;
  opts.max_iterations = 120;
  opts.seed = 1;
  const QaoaResult r = solver.optimize(opts);
  EXPECT_GT(r.expectation, g.total_weight() / 2.0)
      << "optimized F_p should beat the random-guess baseline W/2";
  EXPECT_LE(r.expectation, solver.exact_optimum() + 1e-9);
}

TEST(Optimize, SingleEdgeReachesOptimumWithGenerousBudget) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  QaoaOptions opts;
  opts.layers = 2;
  opts.max_iterations = 400;
  opts.rhobeg = 0.5;
  const QaoaResult r = solve_qaoa(g, opts);
  EXPECT_GT(r.expectation, 0.95);
  EXPECT_DOUBLE_EQ(r.cut.value, 1.0);
}

TEST(Optimize, BestSampledReportsTrueBestOnAllNegativeCutLandscape) {
  // Every edge weight negative => every nonempty cut has negative value, as
  // in the signed merge graphs qaoa2::build_merge_graph produces. The
  // sampling diagnostic must report the true best over the drawn samples
  // instead of the phantom 0.0 a zero-initialized accumulator yields.
  Graph g(4);
  g.add_edge(0, 1, -2.0);
  g.add_edge(1, 2, -1.5);
  g.add_edge(2, 3, -3.0);
  g.add_edge(0, 3, -1.0);
  const QaoaSolver solver(g);
  QaoaOptions opts;
  opts.layers = 1;
  // A single objective evaluation and very few shots: the optimizer cannot
  // concentrate amplitude on the zero-valued trivial cuts (0000/1111), and
  // with 4 draws from a near-uniform 16-state distribution the seed below
  // produces no trivial-cut sample — so the true best is strictly negative
  // and a reverted best_sampled = max(0.0, ...) accumulator is caught.
  opts.max_iterations = 1;
  opts.shots = 4;
  opts.seed = 11;
  const QaoaResult r = solver.optimize(opts);

  // Reproduce the extraction-time sample stream (optimize() only touches
  // its shot RNG at extraction when shot_based_objective is off).
  const sim::StateVector sv =
      solver.state(circuit::unpack_angles(r.parameters));
  util::Rng rng(opts.seed ^ 0x7357b1e55ed5eedULL);
  const auto samples = sim::sample_counts(sv, opts.shots, rng);
  double expected = solver.cut_table()[samples.front()];
  for (const sim::BasisState s : samples) {
    expected = std::max(expected, solver.cut_table()[s]);
  }
  ASSERT_LT(expected, 0.0)
      << "seed/shots drew a trivial cut; pick a seed whose samples are all "
         "nonempty cuts so this test keeps its regression-catching power";
  EXPECT_DOUBLE_EQ(r.best_sampled_value, expected);
}

TEST(Optimize, BestSampledCanBeNegativeWhenZeroCutUnreachable) {
  // Force a landscape where even the trivial cuts are negative by seeding
  // sampled_expectation directly: a 2-node graph with a negative edge has
  // cut table {0, -1, -1, 0}; with the state concentrated on the nonzero
  // cuts the best sample must come out negative, not 0.
  Graph g(2);
  g.add_edge(0, 1, -1.0);
  const QaoaSolver solver(g);
  // gamma = 0, beta = pi/4: mixer rotates |++> so all four states keep
  // support; sample enough shots that a cut of -1 appears.
  circuit::QaoaAngles angles;
  angles.gammas = {0.0};
  angles.betas = {std::numbers::pi / 4.0};
  util::Rng rng(5);
  const double est = solver.sampled_expectation(angles, 4096, rng);
  EXPECT_LT(est, 0.0) << "samples hitting cut -1 must drag the mean below 0";
}

TEST(Optimize, ChosenBitstringAchievesReportedCut) {
  util::Rng rng(11);
  const Graph g =
      graph::erdos_renyi(9, 0.35, rng, graph::WeightMode::kUniform01);
  QaoaOptions opts;
  opts.layers = 3;
  opts.seed = 4;
  const QaoaResult r = solve_qaoa(g, opts);
  EXPECT_NEAR(maxcut::cut_value(g, r.cut.assignment), r.cut.value, 1e-9);
}

TEST(Optimize, TopKNeverWorseThanTopOne) {
  util::Rng rng(13);
  const Graph g = graph::erdos_renyi(10, 0.3, rng);
  QaoaOptions base;
  base.layers = 3;
  base.seed = 7;
  base.top_k = 1;
  QaoaOptions topk = base;
  topk.top_k = 16;
  const QaoaSolver solver(g);
  const double v1 = solver.optimize(base).cut.value;
  const double vk = solver.optimize(topk).cut.value;
  EXPECT_GE(vk, v1 - 1e-12) << "top-k scan (paper section 5) cannot hurt";
}

TEST(Workspace, ReusedStateMatchesFreshConstruction) {
  // One EvalWorkspace across many evaluations (what optimize() does) must
  // reproduce the fresh-allocation path bit for bit, including after the
  // workspace held a state for DIFFERENT angles.
  util::Rng rng(31);
  const Graph g = graph::erdos_renyi(8, 0.4, rng);
  const QaoaSolver solver(g);
  QaoaSolver::EvalWorkspace workspace(g.num_nodes());

  circuit::QaoaAngles a, b;
  a.gammas = {0.3, 0.5};
  a.betas = {0.2, 0.1};
  b.gammas = {0.9, 0.05};
  b.betas = {0.4, 0.7};
  for (const auto* angles : {&a, &b, &a}) {
    const double reused = solver.expectation(*angles, workspace);
    EXPECT_EQ(reused, solver.expectation(*angles));
    const sim::StateVector fresh = solver.state(*angles);
    workspace.half.expand_half(workspace.full);
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(workspace.full.amplitude(i), fresh.amplitude(i));
    }
  }
}

TEST(Workspace, SampledExpectationMatchesAllocatingPath) {
  util::Rng rng(32);
  const Graph g = graph::erdos_renyi(8, 0.4, rng);
  const QaoaSolver solver(g);
  circuit::QaoaAngles angles;
  angles.gammas = {0.45};
  angles.betas = {0.35};
  QaoaSolver::EvalWorkspace workspace(g.num_nodes());
  util::Rng shots_a(77), shots_b(77);
  const double reused =
      solver.sampled_expectation(angles, 256, shots_a, workspace);
  const double fresh = solver.sampled_expectation(angles, 256, shots_b);
  EXPECT_EQ(reused, fresh);
  // Second use of the same (now dirty) workspace, with both rng streams
  // advanced identically: stale CDF/shot-buffer contents must not leak
  // into the estimate.
  const double again =
      solver.sampled_expectation(angles, 256, shots_a, workspace);
  const double fresh_again = solver.sampled_expectation(angles, 256, shots_b);
  EXPECT_EQ(again, fresh_again);
}

TEST(Workspace, AdaptsToDifferentQubitCount) {
  util::Rng rng(33);
  const Graph g = graph::erdos_renyi(6, 0.5, rng);
  const QaoaSolver solver(g);
  circuit::QaoaAngles angles;
  angles.gammas = {0.3};
  angles.betas = {0.2};
  // Deliberately wrong-sized workspace: the evaluation must resize its
  // half state to n - 1 qubits.
  QaoaSolver::EvalWorkspace workspace(3);
  const double got = solver.expectation(angles, workspace);
  EXPECT_EQ(workspace.half.num_qubits(), 5);
  EXPECT_EQ(got, solver.expectation(angles));
}

TEST(Optimize, DeterministicPerSeed) {
  util::Rng rng(15);
  const Graph g = graph::erdos_renyi(9, 0.35, rng);
  QaoaOptions opts;
  opts.layers = 2;
  opts.seed = 42;
  const QaoaResult a = solve_qaoa(g, opts);
  const QaoaResult b = solve_qaoa(g, opts);
  EXPECT_DOUBLE_EQ(a.expectation, b.expectation);
  EXPECT_EQ(a.cut.assignment, b.cut.assignment);
  EXPECT_EQ(a.parameters, b.parameters);
}

TEST(Optimize, ShotBasedObjectiveRunsAndStaysBounded) {
  util::Rng rng(17);
  const Graph g = graph::erdos_renyi(8, 0.4, rng);
  QaoaOptions opts;
  opts.layers = 2;
  opts.shot_based_objective = true;
  opts.shots = 512;
  opts.seed = 3;
  const QaoaSolver solver(g);
  const QaoaResult r = solver.optimize(opts);
  EXPECT_LE(r.expectation, solver.exact_optimum() + 1e-9);
  EXPECT_GT(r.best_sampled_value, 0.0);
}

TEST(Optimize, RespectsIterationBudget) {
  util::Rng rng(19);
  const Graph g = graph::erdos_renyi(8, 0.4, rng);
  QaoaOptions opts;
  opts.layers = 2;
  opts.max_iterations = 25;
  const QaoaResult r = solve_qaoa(g, opts);
  EXPECT_LE(r.evaluations, 25);
}

TEST(Optimize, RandomInitBackendWorks) {
  util::Rng rng(23);
  const Graph g = graph::erdos_renyi(8, 0.4, rng);
  QaoaOptions opts;
  opts.layers = 2;
  opts.init = InitKind::kRandom;
  opts.seed = 5;
  const QaoaResult r = solve_qaoa(g, opts);
  EXPECT_GT(r.expectation, 0.0);
}

TEST(Optimize, InputValidation) {
  const Graph g = graph::cycle_graph(4);
  QaoaOptions opts;
  opts.layers = 0;
  EXPECT_THROW(solve_qaoa(g, opts), std::invalid_argument);
  opts = QaoaOptions{};
  opts.top_k = 0;
  EXPECT_THROW(solve_qaoa(g, opts), std::invalid_argument);
}

// ----------------------------------------------- batched restarts ----

TEST(Restarts, BatchedMatchesSequentialReplayExactly) {
  // The lockstep-batched path promises each restart's trajectory is
  // bit-for-bit the one a restarts=1 run from the same start produces, and
  // that the best expectation wins. Replay every restart sequentially and
  // demand EXACT equality (not near-equality) of the winner.
  util::Rng rng(31);
  const Graph g = graph::erdos_renyi(8, 0.4, rng);
  const QaoaSolver solver(g);
  QaoaOptions opts;
  opts.layers = 2;
  opts.seed = 9;
  opts.restarts = 4;
  opts.lockstep_min_qubits = 0;  // force lockstep below the size crossover
  const QaoaResult batched = solver.optimize(opts);

  QaoaResult best;
  int total_evaluations = 0;
  for (int r = 0; r < opts.restarts; ++r) {
    QaoaOptions single = opts;
    single.restarts = 1;
    single.initial_parameters = restart_initial_parameters(opts, r);
    const QaoaResult res = solver.optimize(single);
    total_evaluations += res.evaluations;
    if (r == 0 || res.expectation > best.expectation) best = res;
  }

  EXPECT_EQ(batched.parameters, best.parameters);
  EXPECT_EQ(batched.expectation, best.expectation);
  EXPECT_EQ(batched.cut.assignment, best.cut.assignment);
  EXPECT_EQ(batched.cut.value, best.cut.value);
  EXPECT_EQ(batched.best_sampled_value, best.best_sampled_value);
  EXPECT_EQ(batched.evaluations, total_evaluations);
}

TEST(Restarts, SizeThresholdFallbackIsBitIdentical) {
  // Below lockstep_min_qubits optimize() silently runs the sequential
  // replay; the caller must not be able to tell apart from forced lockstep.
  util::Rng rng(53);
  const Graph g = graph::erdos_renyi(8, 0.4, rng);
  const QaoaSolver solver(g);
  QaoaOptions opts;
  opts.layers = 2;
  opts.seed = 11;
  opts.restarts = 3;
  ASSERT_LT(static_cast<int>(g.num_nodes()), opts.lockstep_min_qubits);
  const QaoaResult seq = solver.optimize(opts);
  opts.lockstep_min_qubits = 0;
  const QaoaResult lock = solver.optimize(opts);
  EXPECT_EQ(seq.parameters, lock.parameters);
  EXPECT_EQ(seq.expectation, lock.expectation);
  EXPECT_EQ(seq.evaluations, lock.evaluations);
  EXPECT_EQ(seq.cut.assignment, lock.cut.assignment);
}

TEST(Restarts, NeverWorseThanSingleRun) {
  util::Rng rng(41);
  const Graph g = graph::erdos_renyi(9, 0.35, rng);
  const QaoaSolver solver(g);
  QaoaOptions opts;
  opts.layers = 2;
  opts.seed = 6;
  const QaoaResult single = solver.optimize(opts);
  opts.restarts = 5;
  const QaoaResult multi = solver.optimize(opts);
  // Restart 0 IS the single run, so the max over restarts can only improve.
  EXPECT_GE(multi.expectation, single.expectation);
}

TEST(Restarts, ShotBasedFallbackMatchesSequentialLoop) {
  util::Rng rng(43);
  const Graph g = graph::erdos_renyi(7, 0.4, rng);
  const QaoaSolver solver(g);
  QaoaOptions opts;
  opts.layers = 2;
  opts.seed = 8;
  opts.shots = 256;
  opts.shot_based_objective = true;
  opts.restarts = 3;
  const QaoaResult multi = solver.optimize(opts);

  QaoaResult best;
  for (int r = 0; r < opts.restarts; ++r) {
    QaoaOptions single = opts;
    single.restarts = 1;
    single.initial_parameters = restart_initial_parameters(opts, r);
    const QaoaResult res = solver.optimize(single);
    if (r == 0 || res.expectation > best.expectation) best = res;
  }
  EXPECT_EQ(multi.parameters, best.parameters);
  EXPECT_EQ(multi.expectation, best.expectation);
}

TEST(Restarts, ExpiredDeadlineStillReturnsAValidCut) {
  // A request whose deadline has already passed stops the restart loop
  // before its first step; optimize() still extracts a full assignment.
  util::Rng rng(59);
  const Graph g = graph::erdos_renyi(8, 0.4, rng);
  const QaoaSolver solver(g);
  util::RequestContext context;
  context.set_deadline_after(-1.0);
  QaoaOptions opts;
  opts.layers = 2;
  opts.seed = 3;
  opts.restarts = 4;
  opts.lockstep_min_qubits = 0;
  opts.context = &context;
  const QaoaResult r = solver.optimize(opts);
  EXPECT_LE(r.evaluations, opts.restarts);
  ASSERT_EQ(r.cut.assignment.size(), static_cast<std::size_t>(g.num_nodes()));
  for (const std::uint8_t side : r.cut.assignment) EXPECT_LE(side, 1);
  EXPECT_NEAR(r.cut.value, maxcut::cut_value(g, r.cut.assignment), 1e-9);
  EXPECT_EQ(r.parameters.size(), std::size_t{4});
}

TEST(Restarts, InitialParametersAreDeterministicAndDiverse) {
  QaoaOptions opts;
  opts.layers = 3;
  opts.seed = 12;
  // Restart 0 reproduces the single-run start (the linear ramp here).
  const std::vector<double> r0 = restart_initial_parameters(opts, 0);
  ASSERT_EQ(r0.size(), std::size_t{6});
  for (int l = 0; l < 3; ++l) {
    const double t = (l + 0.5) / 3.0;
    EXPECT_DOUBLE_EQ(r0[l], 0.7 * t);
    EXPECT_DOUBLE_EQ(r0[3 + l], 0.7 * (1.0 - t));
  }
  // An explicit override wins for restart 0 only.
  QaoaOptions warm = opts;
  warm.initial_parameters = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  EXPECT_EQ(restart_initial_parameters(warm, 0), warm.initial_parameters);
  EXPECT_NE(restart_initial_parameters(warm, 1), warm.initial_parameters);
  // Fixed (seed, restart) is reproducible; distinct restarts differ.
  EXPECT_EQ(restart_initial_parameters(opts, 2),
            restart_initial_parameters(opts, 2));
  EXPECT_NE(restart_initial_parameters(opts, 1),
            restart_initial_parameters(opts, 2));
  EXPECT_THROW(restart_initial_parameters(opts, -1), std::invalid_argument);
}

TEST(Restarts, InputValidation) {
  const Graph g = graph::cycle_graph(4);
  QaoaOptions opts;
  opts.restarts = 0;
  EXPECT_THROW(solve_qaoa(g, opts), std::invalid_argument);
}

TEST(CostTable, BuiltOncePerBatchedSolve) {
  util::Rng rng(47);
  const Graph g = graph::erdos_renyi(7, 0.4, rng);
  QaoaOptions opts;
  opts.layers = 2;
  opts.seed = 2;
  opts.restarts = 8;
  opts.lockstep_min_qubits = 0;
  const std::uint64_t before = cut_table_builds();
  solve_qaoa(g, opts);
  // One QaoaSolver construction = one table build shared by all 8 lockstep
  // restarts; the per-iteration objective and the final extraction reuse it.
  EXPECT_EQ(cut_table_builds() - before, 1u);
}

TEST(Schedule, PaperIterationEndpoints) {
  EXPECT_EQ(paper_iteration_schedule(3), 30);
  EXPECT_EQ(paper_iteration_schedule(4), 44);
  EXPECT_EQ(paper_iteration_schedule(8), 100);
  EXPECT_EQ(paper_iteration_schedule(1), 30);   // clamped below
  EXPECT_EQ(paper_iteration_schedule(20), 100); // clamped above
}

TEST(Optimize, MoreLayersHelpOnAverageForRing) {
  // p -> infinity is exact (paper section 3.2); at least p=4 should beat
  // p=1 on an odd ring where p=1 is provably suboptimal.
  const Graph g = graph::cycle_graph(7);
  const QaoaSolver solver(g);
  QaoaOptions p1;
  p1.layers = 1;
  p1.max_iterations = 200;
  QaoaOptions p4 = p1;
  p4.layers = 4;
  p4.max_iterations = 400;
  EXPECT_GT(solver.optimize(p4).expectation,
            solver.optimize(p1).expectation - 1e-9);
}

// ------------------------------------------------------------------ RQAOA ----

TEST(Rqaoa, ExactOnSmallTrees) {
  // Trees are bipartite: the optimum cuts every edge; RQAOA's greedy
  // correlation elimination recovers it.
  const Graph g = graph::path_graph(10);
  RqaoaOptions opts;
  opts.qaoa.layers = 2;
  opts.qaoa.max_iterations = 80;
  opts.cutoff = 4;
  const RqaoaResult r = solve_rqaoa(g, opts);
  EXPECT_DOUBLE_EQ(r.cut.value, 9.0);
  EXPECT_GT(r.rounds, 0);
}

TEST(Rqaoa, CompetitiveOnRandomGraphs) {
  util::Rng rng(25);
  const Graph g = graph::erdos_renyi(12, 0.3, rng);
  const double exact = maxcut::solve_exact(g).value;
  RqaoaOptions opts;
  opts.qaoa.layers = 2;
  opts.qaoa.max_iterations = 60;
  opts.cutoff = 6;
  const RqaoaResult r = solve_rqaoa(g, opts);
  EXPECT_NEAR(maxcut::cut_value(g, r.cut.assignment), r.cut.value, 1e-9);
  EXPECT_GE(r.cut.value, 0.85 * exact);
  EXPECT_LE(r.cut.value, exact + 1e-9);
}

TEST(Rqaoa, SmallGraphSolvedDirectly) {
  const Graph g = graph::cycle_graph(4);
  RqaoaOptions opts;
  opts.cutoff = 8;  // larger than the graph: no elimination rounds
  const RqaoaResult r = solve_rqaoa(g, opts);
  EXPECT_EQ(r.rounds, 0);
  EXPECT_DOUBLE_EQ(r.cut.value, 4.0);
}

TEST(Rqaoa, AllNegativeWeightsSettleOnZeroCut) {
  // All-negative weights: every cut has value <= 0 and the optimum cuts
  // nothing. The per-round elimination tracks the best |correlation| with
  // a -infinity seed (the finite `-1.0` sentinel family), so the first
  // edge always wins on its own merits; the exact finish plus constraint
  // propagation must then land on the empty cut.
  Graph g(8);
  for (NodeId u = 0; u < 8; ++u) {
    g.add_edge(u, (u + 1) % 8, -1.5);
  }
  RqaoaOptions opts;
  opts.qaoa.layers = 1;
  opts.qaoa.max_iterations = 40;
  opts.cutoff = 4;
  const RqaoaResult r = solve_rqaoa(g, opts);
  EXPECT_GT(r.rounds, 0);
  EXPECT_NEAR(maxcut::cut_value(g, r.cut.assignment), r.cut.value, 1e-9);
  EXPECT_DOUBLE_EQ(r.cut.value, 0.0);
}

TEST(Rqaoa, CutoffValidation) {
  RqaoaOptions opts;
  opts.cutoff = 1;
  EXPECT_THROW(solve_rqaoa(graph::cycle_graph(4), opts),
               std::invalid_argument);
}

}  // namespace
}  // namespace qq::qaoa
