// Tests for the circuit IR, the QAOA ansatz builder, and the synthesis
// pass pipeline. Pass correctness is asserted as distribution-level
// equivalence (passes may change global phase).

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "qcircuit/ansatz.hpp"
#include "qcircuit/circuit.hpp"
#include "qcircuit/execute.hpp"
#include "qcircuit/passes.hpp"
#include "qgraph/generators.hpp"
#include "qsim/measure.hpp"
#include "test_circuits.hpp"
#include "util/rng.hpp"

namespace qq::circuit {
namespace {

/// |<a|b>| == 1 iff equal up to global phase.
double overlap(const sim::StateVector& a, const sim::StateVector& b) {
  std::complex<double> inner{0.0, 0.0};
  for (std::size_t i = 0; i < a.size(); ++i) {
    inner += std::conj(a.data()[i]) * b.data()[i];
  }
  return std::abs(inner);
}

// ------------------------------------------------------------- IR basics ----

TEST(Circuit, EmittersAndValidation) {
  Circuit qc(3);
  qc.h(0).cx(0, 1).rzz(1, 2, 0.5).rx(2, 1.0);
  EXPECT_EQ(qc.size(), 4u);
  EXPECT_THROW(qc.h(3), std::out_of_range);
  EXPECT_THROW(qc.cx(1, 1), std::invalid_argument);
  EXPECT_THROW(Circuit(-1), std::invalid_argument);
}

TEST(Circuit, StatsCountsAndDepth) {
  Circuit qc(3);
  qc.h(0).h(1).h(2);        // one layer of 1q gates
  qc.cx(0, 1);              // layer 2
  qc.cx(1, 2);              // layer 3 (shares qubit 1)
  const CircuitStats s = qc.stats();
  EXPECT_EQ(s.total_gates, 5u);
  EXPECT_EQ(s.two_qubit_gates, 2u);
  EXPECT_EQ(s.depth, 3);
  EXPECT_EQ(s.depth_2q, 2);
}

TEST(Circuit, DisjointTwoQubitGatesShareALayer) {
  Circuit qc(4);
  qc.cx(0, 1).cx(2, 3);
  EXPECT_EQ(qc.stats().depth, 1);
}

// ---------------------------------------------------------------- ansatz ----

TEST(Ansatz, GateCountsMatchFormula) {
  util::Rng rng(3);
  const auto g = graph::erdos_renyi(6, 0.5, rng);
  QaoaAngles angles;
  angles.gammas = {0.1, 0.2, 0.3};
  angles.betas = {0.4, 0.5, 0.6};
  const Circuit qc = qaoa_ansatz(g, angles);
  // n Hadamards + p*(|E| RZZ + n RX)
  const std::size_t expected = 6 + 3 * (g.num_edges() + 6);
  EXPECT_EQ(qc.size(), expected);
  EXPECT_EQ(qc.stats().two_qubit_gates, 3 * g.num_edges());
}

TEST(Ansatz, LayerMismatchThrows) {
  QaoaAngles bad;
  bad.gammas = {0.1};
  bad.betas = {0.1, 0.2};
  EXPECT_THROW(qaoa_ansatz(graph::cycle_graph(4), bad), std::invalid_argument);
}

TEST(Ansatz, PackUnpackRoundTrip) {
  QaoaAngles angles;
  angles.gammas = {0.1, 0.2};
  angles.betas = {0.3, 0.4};
  const auto packed = pack_angles(angles);
  EXPECT_EQ(packed, (std::vector<double>{0.1, 0.2, 0.3, 0.4}));
  const QaoaAngles back = unpack_angles(packed);
  EXPECT_EQ(back.gammas, angles.gammas);
  EXPECT_EQ(back.betas, angles.betas);
  EXPECT_THROW(unpack_angles({1.0, 2.0, 3.0}), std::invalid_argument);
}

// ---------------------------------------------------------------- passes ----

TEST(Passes, MergeRotationsFusesRuns) {
  Circuit qc(2);
  qc.rz(0, 0.1).rz(0, 0.2).rx(1, 0.3).rz(0, 0.4);
  const Circuit out = merge_rotations(qc);
  // rz(0) run of two fuses; the rx on q1 does not block q0's run, but the
  // final rz(0, 0.4) is adjacent to the fused rz as well.
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.gates()[0].kind, GateKind::kRz);
  EXPECT_NEAR(out.gates()[0].param, 0.7, 1e-12);
}

TEST(Passes, MergeRotationsStopsAtInterposedGate) {
  Circuit qc(1);
  qc.rz(0, 0.1).h(0).rz(0, 0.2);
  EXPECT_EQ(merge_rotations(qc).size(), 3u);
}

TEST(Passes, MergeRzzUsesUnorderedPair) {
  Circuit qc(2);
  qc.rzz(0, 1, 0.3);
  qc.rzz(1, 0, 0.4);
  const Circuit out = merge_rotations(qc);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out.gates()[0].param, 0.7, 1e-12);
}

TEST(Passes, DropIdentitiesRemovesFullTurns) {
  Circuit qc(1);
  qc.rz(0, 2.0 * std::numbers::pi).rx(0, 0.5).rz(0, -4.0 * std::numbers::pi);
  const Circuit out = drop_identities(qc);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.gates()[0].kind, GateKind::kRx);
}

TEST(Passes, CancelPairsRemovesAdjacentInverses) {
  Circuit qc(2);
  qc.h(0).h(0).cx(0, 1).cx(0, 1).h(1).h(1).h(1);
  const Circuit out = cancel_pairs(qc);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.gates()[0].kind, GateKind::kH);
  EXPECT_EQ(out.gates()[0].q0, 1);
}

TEST(Passes, CancelPairsHandlesChains) {
  Circuit qc(1);
  qc.h(0).h(0).h(0).h(0);  // even chain collapses entirely
  EXPECT_EQ(cancel_pairs(qc).size(), 0u);
  Circuit odd(1);
  odd.h(0).h(0).h(0);
  EXPECT_EQ(cancel_pairs(odd).size(), 1u);
}

TEST(Passes, CancelPairsRespectsInterposedGates) {
  Circuit qc(2);
  qc.cx(0, 1).h(1).cx(0, 1);  // H on target blocks cancellation
  EXPECT_EQ(cancel_pairs(qc).size(), 3u);
}

TEST(Passes, ScheduleReducesCostLayerDepth) {
  // Ring cost layer in sequential edge order has depth ~n; colouring packs
  // disjoint pairs together.
  const auto ring = graph::cycle_graph(8);
  QaoaAngles angles;
  angles.gammas = {0.3};
  angles.betas = {0.2};
  const Circuit naive = qaoa_ansatz(ring, angles);
  const Circuit scheduled = schedule_commuting_rzz(naive);
  EXPECT_LT(scheduled.stats().depth_2q, naive.stats().depth_2q);
  // An even ring is 2-edge-colourable.
  EXPECT_EQ(scheduled.stats().depth_2q, 2);
}

TEST(Passes, TranspileLowersToCxBasis) {
  Circuit qc(2);
  qc.rzz(0, 1, 0.7).cx(1, 0);
  const Circuit out = transpile_to_cx_basis(qc);
  for (const Gate& g : out.gates()) {
    EXPECT_TRUE(!is_two_qubit(g.kind) || g.kind == GateKind::kCx)
        << "gate kind " << static_cast<int>(g.kind);
  }
  EXPECT_EQ(out.stats().two_qubit_gates, 2u + 1u);
}

class PassEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(PassEquivalence, AllPassesPreserveStateUpToGlobalPhase) {
  const int seed = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(seed));
  const Circuit qc = qq::testing::random_circuit(4, 60, rng);
  sim::StateVector base(4);
  base = run(qc);
  const auto check = [&base](const Circuit& variant, const char* label) {
    const sim::StateVector out = run(variant);
    EXPECT_NEAR(overlap(base, out), 1.0, 1e-9) << label;
  };
  check(merge_rotations(qc), "merge_rotations");
  check(drop_identities(qc), "drop_identities");
  check(cancel_pairs(qc), "cancel_pairs");
  check(schedule_commuting_rzz(qc), "schedule_commuting_rzz");
  check(transpile_to_cx_basis(qc), "transpile_to_cx_basis");
  check(synthesize(qc), "synthesize");
  check(transpile_to_cx_basis(synthesize(qc)), "synthesize+transpile");
}

INSTANTIATE_TEST_SUITE_P(Seeds, PassEquivalence, ::testing::Range(0, 10));

TEST(Passes, SynthesizeNeverIncreasesGateCountOnAnsatz) {
  util::Rng rng(17);
  const auto g = graph::erdos_renyi(7, 0.45, rng);
  QaoaAngles angles;
  angles.gammas = {0.3, 0.5};
  angles.betas = {0.2, 0.1};
  const Circuit naive = qaoa_ansatz(g, angles);
  const Circuit opt = synthesize(naive);
  EXPECT_LE(opt.size(), naive.size());
  EXPECT_LE(opt.stats().depth_2q, naive.stats().depth_2q);
}

// --------------------------------------------------------------- execute ----

TEST(Execute, AnsatzFromCircuitMatchesKnownTwoQubitState) {
  // Single edge, p=1: amplitudes can be written in closed form.
  graph::Graph g(2);
  g.add_edge(0, 1, 1.0);
  QaoaAngles angles;
  angles.gammas = {0.9};
  angles.betas = {0.4};
  const Circuit qc = qaoa_ansatz(g, angles);
  const sim::StateVector sv = run(qc);
  EXPECT_NEAR(sv.norm_squared(), 1.0, 1e-10);
  // Symmetry: P(01) == P(10) and P(00) == P(11) for a single edge.
  const auto probs = sim::probabilities(sv);
  EXPECT_NEAR(probs[1], probs[2], 1e-10);
  EXPECT_NEAR(probs[0], probs[3], 1e-10);
}

TEST(Execute, QubitCountMismatchThrows) {
  Circuit qc(3);
  sim::StateVector sv(2);
  EXPECT_THROW(apply(qc, sv), std::invalid_argument);
}

}  // namespace
}  // namespace qq::circuit
