// Level-table cost sweeps against the dense sweeps they replace. The dense
// apply_diagonal_phase overloads are the oracle: on every table kind a QAOA
// leaf meets (unit-weight, integer-weight, random real weights with
// 2^(n-1) distinct values, and a signed QAOA² merge graph), the level
// overloads must leave every amplitude bit-for-bit identical, flat and
// batched, under every SIMD backend the machine supports.
//
// The same tables drive the half-state suite: a QAOA state evaluated on its
// flip-symmetric half (the z whose top bit is 0) must expand to exactly the
// bytes of today's full-state evaluation, and its mirror-order expectation
// must equal the full-state sum.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "qaoa/cost_table.hpp"
#include "qaoa/qaoa.hpp"
#include "qaoa2/merge.hpp"
#include "qgraph/generators.hpp"
#include "qsim/batched.hpp"
#include "qsim/level_table.hpp"
#include "qsim/measure.hpp"
#include "qsim/simd.hpp"
#include "qsim/statevector.hpp"
#include "test_isa.hpp"
#include "util/rng.hpp"

namespace qq::sim {
namespace {

using testing::available_isas;
using testing::bits_equal;
using testing::IsaGuard;

struct Table {
  std::string name;
  std::vector<double> values;
};

/// The four cut-table kinds on n qubits.
std::vector<Table> diagonals(int n) {
  util::Rng rng(static_cast<std::uint64_t>(n) * 131 + 7);
  const graph::Graph unit = graph::erdos_renyi(n, 0.5, rng);

  graph::Graph integer(n);
  for (const graph::Edge& e : unit.edges()) {
    integer.add_edge(e.u, e.v, static_cast<double>(util::uniform_int(rng, 1, 5)));
  }

  const graph::Graph real =
      graph::erdos_renyi(n, 1.0, rng, graph::WeightMode::kUniform01);

  // A merge graph over n parts of a larger random graph: signed weights,
  // as the coarse QAOA² level sees them.
  const int per_part = 3;
  const graph::Graph big = graph::erdos_renyi(n * per_part, 0.3, rng);
  std::vector<std::vector<graph::NodeId>> parts(static_cast<std::size_t>(n));
  std::vector<maxcut::Assignment> local(static_cast<std::size_t>(n));
  for (int a = 0; a < n; ++a) {
    for (int k = 0; k < per_part; ++k) {
      parts[a].push_back(a * per_part + k);
      local[a].push_back(static_cast<std::uint8_t>(util::uniform_int(rng, 0, 1)));
    }
  }
  const graph::Graph merge = qaoa2::build_merge_graph(big, parts, local);

  return {{"unit-weight ER", qaoa::build_cut_table(unit)},
          {"integer weights", qaoa::build_cut_table(integer)},
          {"random real weights", qaoa::build_cut_table(real)},
          {"signed merge graph", qaoa::build_cut_table(merge)}};
}

TEST(LevelTable, ReproducesTheDenseTableBitForBit) {
  for (const Table& t : diagonals(10)) {
    const LevelTable levels(t.values);
    ASSERT_EQ(levels.size(), t.values.size()) << t.name;
    for (std::size_t z = 0; z < t.values.size(); ++z) {
      ASSERT_LT(levels.level()[z], levels.values().size()) << t.name;
      const double v = levels.values()[levels.level()[z]];
      ASSERT_EQ(std::memcmp(&v, &t.values[z], sizeof v), 0) << t.name;
    }
  }
}

TEST(LevelTable, LevelCountsFollowTheGraph) {
  const std::vector<Table> tables = diagonals(10);
  // Unit weights: at most |E| + 1 <= 46 values; random real weights: every
  // complementary pair z, ~z shares one value and no other pair collides.
  EXPECT_LE(LevelTable(tables[0].values).values().size(), 46u);
  EXPECT_EQ(LevelTable(tables[2].values).values().size(), 512u);
}

TEST(LevelTable, SignedZerosAreDistinctLevels) {
  const std::vector<double> diagonal = {0.0, -0.0, 1.0, 0.0};
  const LevelTable levels(diagonal);
  ASSERT_EQ(levels.values().size(), 3u);
  EXPECT_EQ(levels.level(), (std::vector<std::uint32_t>{0, 1, 2, 0}));

  // An amplitude with a negative-zero imaginary part keeps the sign of its
  // zero only if each zero gets its own phase: e^{-i 0.7 (+0)} = (1, -0)
  // and e^{-i 0.7 (-0)} = (1, +0).
  StateVector dense(2);
  for (BasisState s = 0; s < 4; ++s) dense.set_amplitude(s, {0.5, -0.0});
  StateVector level = dense;
  dense.apply_diagonal_phase(diagonal, 0.7);
  level.apply_diagonal_phase(levels, 0.7);
  EXPECT_TRUE(bits_equal(dense, level));
  EXPECT_TRUE(std::signbit(dense.amplitude(0).imag()));
  EXPECT_FALSE(std::signbit(dense.amplitude(1).imag()));
}

TEST(LevelTable, EmptyAndSingleEntryDiagonals) {
  EXPECT_EQ(LevelTable({}).values().size(), 0u);
  const LevelTable one({2.5});
  EXPECT_EQ(one.values(), std::vector<double>{2.5});
  EXPECT_EQ(one.level(), std::vector<std::uint32_t>{0});
}

TEST(LevelTable, SweepsRejectMismatchedSizes) {
  const LevelTable levels(std::vector<double>(4, 1.0));
  StateVector sv(3);
  EXPECT_THROW(sv.apply_diagonal_phase(levels, 0.1), std::invalid_argument);
  BatchedStateVector batch(3, 2);
  EXPECT_THROW(batch.apply_diagonal_phase(levels, {0.1, 0.2}),
               std::invalid_argument);
  BatchedStateVector fits(2, 2);
  EXPECT_THROW(fits.apply_diagonal_phase(levels, {0.1}),
               std::invalid_argument);
}

/// Three QAOA layers, dense sweep vs level sweep, flat.
TEST(LevelSweep, FlatMatchesDenseBitForBit) {
  IsaGuard guard;
  for (const int n : {1, 6, 10, 15}) {
    for (const Table& t : diagonals(n)) {
      const LevelTable levels(t.values);
      for (const simd::Isa isa : available_isas()) {
        ASSERT_EQ(simd::set_isa(isa), isa);
        StateVector dense = StateVector::plus_state(n);
        StateVector level = StateVector::plus_state(n);
        util::Rng rng(5);
        for (int layer = 0; layer < 3; ++layer) {
          const double gamma = util::uniform(rng, -1.5, 1.5);
          const double theta = util::uniform(rng, -2.5, 2.5);
          dense.apply_diagonal_phase(t.values, gamma);
          level.apply_diagonal_phase(levels, gamma);
          dense.apply_rx_layer(theta);
          level.apply_rx_layer(theta);
        }
        EXPECT_TRUE(bits_equal(dense, level))
            << t.name << ", n=" << n << " under " << simd::isa_name(isa);
      }
    }
  }
}

/// The batched twin, B in {1, 3, 16}, per-lane angles.
TEST(LevelSweep, BatchedMatchesDenseBitForBit) {
  IsaGuard guard;
  for (const int n : {1, 6, 10, 15}) {
    for (const Table& t : diagonals(n)) {
      const LevelTable levels(t.values);
      for (const int batch : {1, 3, 16}) {
        if (n == 15 && batch != 16) continue;  // the seam case, widest only
        for (const simd::Isa isa : available_isas()) {
          ASSERT_EQ(simd::set_isa(isa), isa);
          BatchedStateVector dense(n, batch);
          BatchedStateVector level(n, batch);
          dense.reset_to_plus();
          level.reset_to_plus();
          util::Rng rng(9);
          std::vector<double> scales(batch), thetas(batch);
          for (int layer = 0; layer < 3; ++layer) {
            for (int b = 0; b < batch; ++b) {
              scales[b] = util::uniform(rng, -1.5, 1.5);
              thetas[b] = util::uniform(rng, -2.5, 2.5);
            }
            dense.apply_diagonal_phase(t.values, scales);
            level.apply_diagonal_phase(levels, scales);
            dense.apply_rx_layer(thetas);
            level.apply_rx_layer(thetas);
          }
          for (int b = 0; b < batch; ++b) {
            EXPECT_TRUE(bits_equal(dense.lane_state(b), level.lane_state(b)))
                << t.name << ", n=" << n << ", B=" << batch << ", lane " << b
                << " under " << simd::isa_name(isa);
          }
        }
      }
    }
  }
}

// ------------------------------------------------------------ half state ----

/// Per-layer angles of a p = 3 circuit: one (gamma, theta) per lane.
struct LayerAngles {
  std::vector<double> scales;
  std::vector<double> thetas;
};

std::vector<LayerAngles> random_layers(int batch, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<LayerAngles> layers(3);
  for (LayerAngles& l : layers) {
    for (int b = 0; b < batch; ++b) {
      l.scales.push_back(util::uniform(rng, -1.5, 1.5));
      l.thetas.push_back(util::uniform(rng, -2.5, 2.5));
    }
  }
  return layers;
}

StateVector expanded(const StateVector& half) {
  StateVector full(0);
  half.expand_half(full);
  return full;
}

/// One table kind (the parameter indexes diagonals()) at 1..17 qubits.
class HalfState : public ::testing::TestWithParam<int> {};

TEST_P(HalfState, FlatMatchesFullStateBitForBit) {
  IsaGuard guard;
  for (int n = 1; n <= 17; ++n) {
    const Table t = diagonals(n)[static_cast<std::size_t>(GetParam())];
    const LevelTable full_levels(t.values);
    const LevelTable half_levels(t.values, t.values.size() / 2);
    const std::vector<LayerAngles> layers = random_layers(1, 40 + n);
    for (const simd::Isa isa : available_isas()) {
      ASSERT_EQ(simd::set_isa(isa), isa);
      StateVector full = StateVector::plus_state(n);
      StateVector half(n - 1);
      half.reset_to_plus_half();
      for (const LayerAngles& l : layers) {
        full.apply_diagonal_phase(full_levels, l.scales[0]);
        full.apply_rx_layer(l.thetas[0]);
        half.apply_diagonal_phase(half_levels, l.scales[0]);
        half.apply_rx_layer(l.thetas[0]);
        half.apply_rx_mirror(l.thetas[0]);
      }
      EXPECT_TRUE(bits_equal(expanded(half), full))
          << t.name << ", n=" << n << " under " << simd::isa_name(isa);
      EXPECT_EQ(expectation_diagonal_mirror(half, t.values),
                expectation_diagonal(full, t.values))
          << t.name << ", n=" << n << " under " << simd::isa_name(isa);
    }
  }
}

TEST_P(HalfState, BatchedMatchesFullStateBitForBit) {
  IsaGuard guard;
  for (int n = 1; n <= 17; ++n) {
    const Table t = diagonals(n)[static_cast<std::size_t>(GetParam())];
    const LevelTable full_levels(t.values);
    const LevelTable half_levels(t.values, t.values.size() / 2);
    for (const int batch : {1, 3, 16}) {
      const std::vector<LayerAngles> layers = random_layers(batch, 60 + n);
      for (const simd::Isa isa : available_isas()) {
        ASSERT_EQ(simd::set_isa(isa), isa);
        BatchedStateVector full(n, batch);
        BatchedStateVector half(n - 1, batch);
        full.reset_to_plus();
        half.reset_to_plus_half();
        for (const LayerAngles& l : layers) {
          full.apply_diagonal_phase(full_levels, l.scales);
          full.apply_rx_layer(l.thetas);
          half.apply_diagonal_phase(half_levels, l.scales);
          half.apply_rx_layer(l.thetas);
          half.apply_rx_mirror(l.thetas);
        }
        EXPECT_EQ(half.expectation_diagonal_mirror(t.values),
                  full.expectation_diagonal(t.values))
            << t.name << ", n=" << n << ", B=" << batch << " under "
            << simd::isa_name(isa);
        for (int b = 0; b < batch; ++b) {
          EXPECT_TRUE(bits_equal(expanded(half.lane_state(b)),
                                 full.lane_state(b)))
              << t.name << ", n=" << n << ", B=" << batch << ", lane " << b
              << " under " << simd::isa_name(isa);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TableKinds, HalfState, ::testing::Range(0, 4));

TEST(HalfStateShape, ExpansionAndSizeChecks) {
  StateVector half(2);
  half.reset_to_plus_half();
  EXPECT_TRUE(bits_equal(expanded(half), StateVector::plus_state(3)));
  // A wrong-sized target is rebuilt; the mirror fills the top half.
  StateVector target(7);
  half.set_amplitude(1, Amplitude{0.25, -0.5});
  half.expand_half(target);
  ASSERT_EQ(target.num_qubits(), 3);
  EXPECT_EQ(target.amplitude(1), Amplitude(0.25, -0.5));
  EXPECT_EQ(target.amplitude(6), Amplitude(0.25, -0.5));
  EXPECT_THROW(expectation_diagonal_mirror(half, std::vector<double>(4, 1.0)),
               std::invalid_argument);
  BatchedStateVector batch(2, 3);
  EXPECT_THROW(batch.expectation_diagonal_mirror(std::vector<double>(4, 1.0)),
               std::invalid_argument);
  EXPECT_THROW(batch.apply_rx_mirror({0.1, 0.2}), std::invalid_argument);
  EXPECT_THROW(LevelTable(std::vector<double>(4, 1.0), 5),
               std::invalid_argument);
}

/// Through the solver at the smallest sizes, where the half has zero or
/// one qubit: state(), expectation() and the lane-task expectations() all
/// match a full-state preparation from the same cut table.
TEST(HalfStateShape, SolverMatchesFullStateAtTinySizes) {
  EXPECT_THROW(qaoa::QaoaSolver(graph::Graph(0)), std::invalid_argument);
  for (const graph::NodeId n : {1, 2, 3}) {
    const graph::Graph g = n == 1 ? graph::Graph(1) : graph::path_graph(n);
    const qaoa::QaoaSolver solver(g);
    const std::vector<double> x = {0.4, 0.9, 0.6, 0.2};
    const circuit::QaoaAngles angles = circuit::unpack_angles(x);
    StateVector dense = StateVector::plus_state(n);
    for (std::size_t l = 0; l < angles.layers(); ++l) {
      dense.apply_diagonal_phase(solver.cut_table(), angles.gammas[l]);
      dense.apply_rx_layer(2.0 * angles.betas[l]);
    }
    EXPECT_TRUE(bits_equal(solver.state(angles), dense)) << n << " qubits";
    const double want = expectation_diagonal(dense, solver.cut_table());
    EXPECT_EQ(solver.expectation(angles), want) << n << " qubits";
    EXPECT_EQ(solver.expectations({x, x}), (std::vector<double>{want, want}))
        << n << " qubits";
  }
}

/// Through the solver: a 3-restart solve still builds exactly one cut table,
/// and its expectation matches a dense-sweep preparation bit for bit.
TEST(LevelSweep, SolverBuildsOneTableAndMatchesDenseState) {
  util::Rng rng(21);
  const graph::Graph g = graph::erdos_renyi(9, 0.5, rng);
  const std::uint64_t before = qaoa::cut_table_builds();
  const qaoa::QaoaSolver solver(g);
  qaoa::QaoaOptions opts;
  opts.layers = 2;
  opts.restarts = 3;
  solver.optimize(opts);
  EXPECT_EQ(qaoa::cut_table_builds() - before, 1u);

  circuit::QaoaAngles angles;
  angles.gammas = {0.4, 0.9};
  angles.betas = {0.6, 0.2};
  StateVector dense = StateVector::plus_state(9);
  for (std::size_t l = 0; l < angles.layers(); ++l) {
    dense.apply_diagonal_phase(solver.cut_table(), angles.gammas[l]);
    dense.apply_rx_layer(2.0 * angles.betas[l]);
  }
  EXPECT_TRUE(bits_equal(solver.state(angles), dense));
  EXPECT_EQ(solver.expectation(angles),
            expectation_diagonal(dense, solver.cut_table()));
}

}  // namespace
}  // namespace qq::sim
