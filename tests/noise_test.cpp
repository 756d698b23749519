// Tests for the trajectory-based NISQ noise model.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <numbers>

#include "qaoa/cost_table.hpp"
#include "qcircuit/ansatz.hpp"
#include "qcircuit/execute.hpp"
#include "qcircuit/noise.hpp"
#include "qgraph/generators.hpp"
#include "qsim/measure.hpp"
#include "test_circuits.hpp"
#include "util/rng.hpp"

namespace qq::circuit {
namespace {

Circuit bell_circuit() {
  Circuit qc(2);
  qc.h(0).cx(0, 1);
  return qc;
}

TEST(NoiseModel, Validation) {
  NoiseModel bad;
  bad.depolarizing_1q = 1.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = NoiseModel{};
  bad.readout_flip = -0.1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  NoiseModel ok;
  EXPECT_NO_THROW(ok.validate());
  EXPECT_FALSE(ok.enabled());
  ok.depolarizing_2q = 0.01;
  EXPECT_TRUE(ok.enabled());
}

TEST(Noise, ZeroNoiseTrajectoryEqualsIdealRun) {
  // run_trajectory and run share one gate executor, so with no noise the
  // trajectory is the ideal state bit for bit.
  util::Rng circuit_rng(1);
  for (int n = 1; n <= 10; ++n) {
    const Circuit qc = qq::testing::random_circuit(n, 12 * n, circuit_rng);
    util::Rng rng(static_cast<std::uint64_t>(n));
    const sim::StateVector noisy = run_trajectory(qc, NoiseModel{}, rng);
    const sim::StateVector ideal = run(qc);
    ASSERT_EQ(noisy.size(), ideal.size());
    EXPECT_EQ(std::memcmp(noisy.data().data(), ideal.data().data(),
                          ideal.size() * sizeof(sim::Amplitude)),
              0)
        << "n=" << n;
  }
}

TEST(Noise, TrajectoriesPreserveNorm) {
  util::Rng rng(2);
  const Circuit qc = bell_circuit();
  NoiseModel noise;
  noise.depolarizing_1q = 0.2;
  noise.depolarizing_2q = 0.2;
  for (int t = 0; t < 20; ++t) {
    const sim::StateVector sv = run_trajectory(qc, noise, rng);
    EXPECT_NEAR(sv.norm_squared(), 1.0, 1e-9);
  }
}

TEST(Noise, DepolarizingDegradesBellCorrelation) {
  const Circuit qc = bell_circuit();
  NoiseModel noise;
  noise.depolarizing_2q = 0.15;
  util::Rng rng(3);
  double zz = 0.0;
  const int trajectories = 300;
  for (int t = 0; t < trajectories; ++t) {
    const sim::StateVector sv = run_trajectory(qc, noise, rng);
    zz += sim::expectation_zz(sv, 0, 1);
  }
  zz /= trajectories;
  // Ideal Bell state has <ZZ> = 1; the channel pulls it toward 0.
  EXPECT_LT(zz, 0.95);
  EXPECT_GT(zz, 0.3);
}

TEST(Noise, QaoaExpectationShrinksTowardRandomGuess) {
  // On a QAOA state, gate noise pulls <H_C> toward the maximally mixed
  // value W/2 — the decoherence story of the paper's NISQ framing.
  util::Rng g_rng(4);
  const auto g = graph::erdos_renyi(8, 0.5, g_rng);
  const auto table = qaoa::build_cut_table(g);
  QaoaAngles angles;
  angles.gammas = {0.4, 0.7};
  angles.betas = {0.6, 0.3};
  const Circuit qc = qaoa_ansatz(g, angles);

  util::Rng rng(5);
  const double ideal = sim::expectation_diagonal(run(qc), table);
  NoiseModel mild;
  mild.depolarizing_1q = 0.002;
  mild.depolarizing_2q = 0.01;
  NoiseModel heavy;
  heavy.depolarizing_1q = 0.05;
  heavy.depolarizing_2q = 0.15;
  const double with_mild =
      noisy_expectation_diagonal(qc, mild, table, 200, rng);
  const double with_heavy =
      noisy_expectation_diagonal(qc, heavy, table, 200, rng);
  const double random_guess = g.total_weight() / 2.0;

  EXPECT_GT(ideal, random_guess);
  EXPECT_LT(with_heavy, with_mild + 0.05 * (ideal - random_guess));
  // Heavy depolarizing brings the state near maximally mixed.
  EXPECT_NEAR(with_heavy, random_guess, 0.15 * (ideal - random_guess) + 0.3);
}

TEST(Noise, AmplitudeDampingDecaysExcitedState) {
  // Prepare |1> and push it through identity-like gates with damping; the
  // trajectory-averaged population of |1> must decay as (1 - gamma)^gates.
  const double gamma = 0.2;
  const int gate_count = 4;
  Circuit qc(1);
  qc.rx(0, std::numbers::pi);  // |0> -> -i|1>
  // No-ops that trigger noise.
  for (int i = 0; i < gate_count; ++i) qc.rz(0, 0.0);
  NoiseModel noise;
  noise.amplitude_damping = gamma;
  util::Rng rng(11);
  double p1 = 0.0;
  const int trajectories = 4000;
  for (int t = 0; t < trajectories; ++t) {
    const sim::StateVector sv = run_trajectory(qc, noise, rng);
    p1 += std::norm(sv.amplitude(1));
  }
  p1 /= trajectories;
  // The RX gate itself also triggers one damping event: gate_count + 1
  // chances.
  const double expected = std::pow(1.0 - gamma, gate_count + 1);
  EXPECT_NEAR(p1, expected, 0.03);
}

TEST(Noise, AmplitudeDampingLeavesGroundStateAlone) {
  Circuit qc(2);
  qc.rz(0, 0.0).rz(1, 0.0);  // stays in |00>
  NoiseModel noise;
  noise.amplitude_damping = 0.5;
  util::Rng rng(12);
  const sim::StateVector sv = run_trajectory(qc, noise, rng);
  EXPECT_NEAR(std::norm(sv.amplitude(0)), 1.0, 1e-12);
}

TEST(Noise, AmplitudeDampingPreservesNorm) {
  Circuit qc(3);
  qc.h(0).h(1).h(2).cx(0, 1).cx(1, 2);
  NoiseModel noise;
  noise.amplitude_damping = 0.3;
  util::Rng rng(13);
  for (int t = 0; t < 50; ++t) {
    EXPECT_NEAR(run_trajectory(qc, noise, rng).norm_squared(), 1.0, 1e-9);
  }
}

TEST(Noise, ReadoutFlipsChangeSampledStrings) {
  Circuit qc(4);  // identity circuit: ideal shots are all |0000>
  NoiseModel noise;
  noise.readout_flip = 0.25;
  NoisySamplingOptions opts;
  opts.shots = 8000;
  util::Rng rng(6);
  const auto shots = sample_noisy(qc, noise, opts, rng);
  ASSERT_EQ(shots.size(), 8000u);
  std::size_t flipped_bits = 0;
  for (const auto s : shots) flipped_bits += std::popcount(s);
  const double rate = static_cast<double>(flipped_bits) / (8000.0 * 4.0);
  EXPECT_NEAR(rate, 0.25, 0.02);
}

TEST(Noise, SampleNoisySplitsShotsAcrossTrajectories) {
  const Circuit qc = bell_circuit();
  NoiseModel noise;
  noise.depolarizing_1q = 0.05;
  NoisySamplingOptions opts;
  opts.shots = 103;  // awkward split on purpose
  opts.trajectories = 10;
  util::Rng rng(7);
  EXPECT_EQ(sample_noisy(qc, noise, opts, rng).size(), 103u);
}

TEST(Noise, NoiseFreeSamplingMatchesIdealDistribution) {
  const Circuit qc = bell_circuit();
  NoisySamplingOptions opts;
  opts.shots = 20000;
  util::Rng rng(8);
  const auto shots = sample_noisy(qc, NoiseModel{}, opts, rng);
  int zz = 0;
  for (const auto s : shots) {
    EXPECT_TRUE(s == 0b00 || s == 0b11);
    if (s == 0b11) ++zz;
  }
  EXPECT_NEAR(static_cast<double>(zz) / 20000.0, 0.5, 0.02);
}

TEST(Noise, SamplingValidation) {
  const Circuit qc = bell_circuit();
  util::Rng rng(9);
  NoisySamplingOptions bad;
  bad.shots = 0;
  EXPECT_THROW(sample_noisy(qc, NoiseModel{}, bad, rng),
               std::invalid_argument);
  EXPECT_THROW(noisy_expectation_diagonal(qc, NoiseModel{}, {1, 1, 1, 1}, 0,
                                          rng),
               std::invalid_argument);
}

TEST(Noise, DeterministicPerSeed) {
  const Circuit qc = bell_circuit();
  NoiseModel noise;
  noise.depolarizing_1q = 0.1;
  noise.readout_flip = 0.05;
  NoisySamplingOptions opts;
  opts.shots = 256;
  util::Rng a(10), b(10);
  EXPECT_EQ(sample_noisy(qc, noise, opts, a), sample_noisy(qc, noise, opts, b));
}

}  // namespace
}  // namespace qq::circuit
