// Tests for the MaxCut core: cut evaluation, the exact solver, classical
// baselines, and simulated annealing.

#include <gtest/gtest.h>

#include <cmath>

#include "maxcut/anneal.hpp"
#include "maxcut/baselines.hpp"
#include "maxcut/cut.hpp"
#include "maxcut/exact.hpp"
#include "qgraph/generators.hpp"
#include "util/rng.hpp"

namespace qq::maxcut {
namespace {

using graph::Graph;
using graph::NodeId;

Graph weighted_square() {
  // 4-cycle with distinct weights; optimum cuts all edges: value 10.
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(2, 3, 3.0);
  g.add_edge(3, 0, 4.0);
  return g;
}

// ------------------------------------------------------------------ cut ----

TEST(Cut, ValueOnHandComputedExamples) {
  const Graph g = weighted_square();
  EXPECT_DOUBLE_EQ(cut_value(g, {0, 1, 0, 1}), 10.0);  // alternating: all cut
  EXPECT_DOUBLE_EQ(cut_value(g, {0, 0, 0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(cut_value(g, {1, 0, 0, 0}), 5.0);   // edges (0,1) + (3,0)
}

TEST(Cut, ComplementHasSameValue) {
  util::Rng rng(3);
  const Graph g = graph::erdos_renyi(12, 0.4, rng, graph::WeightMode::kUniform01);
  const Assignment a = randomized_partitioning(g, rng).assignment;
  Assignment flipped = a;
  for (std::uint8_t& side : flipped) side ^= 1;
  EXPECT_DOUBLE_EQ(cut_value(g, a), cut_value(g, flipped));
}

TEST(Cut, SizeMismatchThrows) {
  const Graph g = weighted_square();
  EXPECT_THROW(cut_value(g, {0, 1}), std::invalid_argument);
  EXPECT_THROW(flip_gain(g, {0, 1}, 0), std::invalid_argument);
}

TEST(Cut, BitsRoundTrip) {
  const Assignment a = {1, 0, 1, 1, 0};
  EXPECT_EQ(assignment_from_bits(bits_from_assignment(a), 5), a);
  EXPECT_EQ(bits_from_assignment(a), 0b01101ULL);
  EXPECT_THROW(assignment_from_bits(0, 65), std::invalid_argument);
}

class FlipGainProperty : public ::testing::TestWithParam<int> {};

TEST_P(FlipGainProperty, GainMatchesRecomputedDelta) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const Graph g =
      graph::erdos_renyi(14, 0.3, rng, graph::WeightMode::kUniform01);
  Assignment a = randomized_partitioning(g, rng).assignment;
  const double base = cut_value(g, a);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const double gain = flip_gain(g, a, u);
    Assignment flipped = a;
    flipped[static_cast<std::size_t>(u)] ^= 1U;
    EXPECT_NEAR(cut_value(g, flipped), base + gain, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlipGainProperty, ::testing::Range(0, 8));

// ---------------------------------------------------------------- exact ----

TEST(Exact, KnownOptima) {
  EXPECT_DOUBLE_EQ(solve_exact(graph::complete_graph(4)).value, 4.0);
  EXPECT_DOUBLE_EQ(solve_exact(graph::complete_graph(5)).value, 6.0);
  EXPECT_DOUBLE_EQ(solve_exact(graph::cycle_graph(6)).value, 6.0);
  EXPECT_DOUBLE_EQ(solve_exact(graph::cycle_graph(5)).value, 4.0);
  EXPECT_DOUBLE_EQ(solve_exact(graph::star_graph(7)).value, 6.0);
  EXPECT_DOUBLE_EQ(solve_exact(weighted_square()).value, 10.0);
}

TEST(Exact, BipartiteGraphsAreFullyCut) {
  const Graph g = graph::grid_2d(3, 4);  // bipartite
  EXPECT_DOUBLE_EQ(solve_exact(g).value, static_cast<double>(g.num_edges()));
}

TEST(Exact, AssignmentAchievesReportedValue) {
  util::Rng rng(5);
  const Graph g =
      graph::erdos_renyi(15, 0.3, rng, graph::WeightMode::kUniform01);
  const CutResult r = solve_exact(g);
  EXPECT_NEAR(cut_value(g, r.assignment), r.value, 1e-9);
}

TEST(Exact, MatchesNaiveEnumerationOnSmallGraphs) {
  util::Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g =
        graph::erdos_renyi(10, 0.4, rng, graph::WeightMode::kUniform01);
    double best = 0.0;
    for (std::uint64_t bits = 0; bits < (1ULL << 10); ++bits) {
      best = std::max(best, cut_value(g, assignment_from_bits(bits, 10)));
    }
    EXPECT_NEAR(solve_exact(g).value, best, 1e-9);
  }
}

TEST(Exact, TrivialGraphs) {
  EXPECT_DOUBLE_EQ(solve_exact(Graph(0)).value, 0.0);
  EXPECT_DOUBLE_EQ(solve_exact(Graph(1)).value, 0.0);
  EXPECT_DOUBLE_EQ(solve_exact(Graph(5)).value, 0.0);  // edgeless
}

TEST(Exact, RejectsOversizedInstances) {
  EXPECT_THROW(solve_exact(Graph(31)), std::invalid_argument);
}

TEST(Exact, HandlesNegativeWeights) {
  // Negative-weight edges arise in QAOA^2 merge graphs and RQAOA
  // contractions; the optimum avoids cutting them.
  Graph g(3);
  g.add_edge(0, 1, -2.0);
  g.add_edge(1, 2, 3.0);
  const CutResult r = solve_exact(g);
  EXPECT_DOUBLE_EQ(r.value, 3.0);  // cut only (1,2)
}

TEST(Exact, AllNegativeWeightsAcrossChunksKeepZeroCutOptimal) {
  // 15 nodes -> 2^14 Gray codes -> several parallel chunks at the default
  // grain, so the cross-chunk merge actually runs. Every edge is negative:
  // every chunk's local best is <= 0 and the global optimum is the empty
  // cut (value 0). The merge is seeded from -infinity — a finite sentinel
  // seed would only be correct here by the accident that one chunk
  // enumerates the empty cut, which is exactly the dependence the fix
  // removes.
  Graph g(15);
  for (NodeId u = 0; u < 15; ++u) {
    for (NodeId v = u + 1; v < 15; ++v) {
      g.add_edge(u, v, -1.0 - 0.01 * static_cast<double>(u + v));
    }
  }
  const CutResult r = solve_exact(g);
  EXPECT_DOUBLE_EQ(r.value, 0.0);
  EXPECT_DOUBLE_EQ(cut_value(g, r.assignment), r.value);
}

// ------------------------------------------------------------ baselines ----

TEST(Baselines, RandomPartitioningIsValidAndBounded) {
  util::Rng rng(9);
  const Graph g = graph::erdos_renyi(20, 0.3, rng);
  const double exact = solve_exact(g).value;
  for (int i = 0; i < 10; ++i) {
    const CutResult r = randomized_partitioning(g, rng);
    EXPECT_NEAR(cut_value(g, r.assignment), r.value, 1e-9);
    EXPECT_LE(r.value, exact + 1e-9);
    EXPECT_GE(r.value, 0.0);
  }
}

TEST(Baselines, RandomPartitioningExpectedHalfWeight) {
  util::Rng rng(11);
  const Graph g = graph::complete_graph(12);
  double sum = 0.0;
  const int trials = 400;
  for (int i = 0; i < trials; ++i) sum += randomized_partitioning(g, rng).value;
  // E[cut] = W/2 = 33 for K12 (66 edges).
  EXPECT_NEAR(sum / trials, 33.0, 2.0);
}

TEST(Baselines, OneExchangeReachesLocalOptimum) {
  util::Rng rng(13);
  const Graph g =
      graph::erdos_renyi(18, 0.3, rng, graph::WeightMode::kUniform01);
  const CutResult r = one_exchange(g, rng);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_LE(flip_gain(g, r.assignment, u), 1e-9)
        << "node " << u << " still improvable";
  }
  EXPECT_NEAR(cut_value(g, r.assignment), r.value, 1e-9);
}

TEST(Baselines, OneExchangeBeatsAtLeastHalfTotalWeightUnweighted) {
  // Classic guarantee: a 1-exchange local optimum cuts >= W/2 edges... for
  // every node, at least half its incident weight is cut.
  util::Rng rng(15);
  const Graph g = graph::erdos_renyi(24, 0.25, rng);
  const CutResult r = one_exchange(g, rng);
  EXPECT_GE(r.value, g.total_weight() / 2.0 - 1e-9);
}

TEST(Baselines, GreedyCutIsValidAndDecent) {
  util::Rng rng(17);
  const Graph g = graph::erdos_renyi(20, 0.3, rng);
  const CutResult r = greedy_cut(g);
  EXPECT_NEAR(cut_value(g, r.assignment), r.value, 1e-9);
  EXPECT_GE(r.value, g.total_weight() / 2.0 - 1e-9);
}

TEST(Baselines, RestartsNeverHurt) {
  util::Rng rng1(19), rng2(19);
  const Graph g = graph::erdos_renyi(16, 0.3, rng1);
  util::Rng r1(100), r2(100);
  const double single = one_exchange(g, r1).value;
  const double multi = one_exchange_restarts(g, r2, 8).value;
  EXPECT_GE(multi, single - 1e-9);
}

// --------------------------------------------------------------- anneal ----

TEST(Anneal, ReachesExactOnSmallGraphs) {
  util::Rng g_rng(21);
  const Graph g = graph::erdos_renyi(12, 0.35, g_rng);
  const double exact = solve_exact(g).value;
  util::Rng rng(22);
  AnnealOptions opts;
  opts.sweeps = 400;
  const CutResult r = simulated_annealing(g, rng, opts);
  EXPECT_NEAR(cut_value(g, r.assignment), r.value, 1e-9);
  EXPECT_GE(r.value, 0.9 * exact);
}

TEST(Anneal, ValueNeverExceedsExact) {
  util::Rng g_rng(23);
  const Graph g =
      graph::erdos_renyi(12, 0.4, g_rng, graph::WeightMode::kUniform01);
  const double exact = solve_exact(g).value;
  util::Rng rng(24);
  EXPECT_LE(simulated_annealing(g, rng).value, exact + 1e-9);
}

TEST(Anneal, RejectsBadOptions) {
  const Graph g = graph::cycle_graph(4);
  util::Rng rng(1);
  AnnealOptions bad;
  bad.sweeps = 0;
  EXPECT_THROW(simulated_annealing(g, rng, bad), std::invalid_argument);
  bad = AnnealOptions{};
  bad.t_final = 3.0;  // > t_initial
  EXPECT_THROW(simulated_annealing(g, rng, bad), std::invalid_argument);
}

}  // namespace
}  // namespace qq::maxcut
