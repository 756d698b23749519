// Randomized equivalence suite for the rewritten pair/subset-enumeration
// kernels (see DESIGN.md "Kernel index enumeration"). Every fast kernel is
// checked against an independent, trivially-correct reference on random
// states: single-qubit diagonals against the generic dense apply_unitary1,
// two-qubit kernels against naive full-sweep branchy loops, and the fused
// apply_rx_layer against the per-qubit apply_rx loop it replaces. Sampler
// edge cases (zero-probability plateaus, all mass on the last state) ride
// along because sample_counts shares the rewritten reduction machinery.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "qsim/measure.hpp"
#include "qsim/statevector.hpp"
#include "util/rng.hpp"

namespace qq::sim {
namespace {

using Amp = std::complex<double>;
constexpr double kTol = 1e-12;

std::vector<Amp> random_amplitudes(int n, util::Rng& rng) {
  std::vector<Amp> amps(std::size_t{1} << n);
  double norm2 = 0.0;
  for (auto& a : amps) {
    a = Amp{util::uniform(rng, -1.0, 1.0), util::uniform(rng, -1.0, 1.0)};
    norm2 += std::norm(a);
  }
  const double inv = 1.0 / std::sqrt(norm2);
  for (auto& a : amps) a *= inv;
  return amps;
}

StateVector make_state(int n, const std::vector<Amp>& amps) {
  StateVector sv(n);
  for (std::size_t i = 0; i < amps.size(); ++i) sv.set_amplitude(i, amps[i]);
  return sv;
}

void expect_state_near(const StateVector& sv, const std::vector<Amp>& want,
                       double tol = kTol) {
  ASSERT_EQ(sv.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_NEAR(std::abs(sv.data()[i] - want[i]), 0.0, tol) << "amp " << i;
  }
}

// ------------------------------------------- naive reference sweeps ----
// These are the pre-rewrite full-sweep implementations: one branch per
// amplitude, unarguably correct, kept here as the oracle.

void ref_z(std::vector<Amp>& a, int q) {
  const std::uint64_t bit = std::uint64_t{1} << q;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i & bit) a[i] = -a[i];
  }
}

void ref_rz(std::vector<Amp>& a, int q, double theta) {
  const std::uint64_t bit = std::uint64_t{1} << q;
  const Amp e0 = std::polar(1.0, -theta * 0.5);
  const Amp e1 = std::polar(1.0, theta * 0.5);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] *= (i & bit) ? e1 : e0;
}

void ref_cx(std::vector<Amp>& a, int control, int target) {
  const std::uint64_t cbit = std::uint64_t{1} << control;
  const std::uint64_t tbit = std::uint64_t{1} << target;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if ((i & cbit) && !(i & tbit)) std::swap(a[i], a[i | tbit]);
  }
}

void ref_rzz(std::vector<Amp>& a, int qa, int qb, double theta) {
  const std::uint64_t abit = std::uint64_t{1} << qa;
  const std::uint64_t bbit = std::uint64_t{1} << qb;
  const Amp same = std::polar(1.0, -theta * 0.5);
  const Amp diff = std::polar(1.0, theta * 0.5);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const bool za = (i & abit) != 0;
    const bool zb = (i & bbit) != 0;
    a[i] *= (za == zb) ? same : diff;
  }
}

// ------------------------------------------------- kernel equivalence ----

class KernelEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(KernelEquivalence, SingleQubitDiagonalsMatchDenseUnitary1) {
  const int n = GetParam();
  util::Rng rng(1000 + static_cast<std::uint64_t>(n));
  for (int q = 0; q < n; ++q) {
    const double theta = util::uniform(rng, -3.0, 3.0);
    const auto amps = random_amplitudes(n, rng);

    // apply_z vs apply_unitary1(diag(1, -1))
    StateVector fast = make_state(n, amps);
    StateVector dense = make_state(n, amps);
    fast.apply_z(q);
    dense.apply_unitary1(q, {Amp{1, 0}, Amp{0, 0}, Amp{0, 0}, Amp{-1, 0}});
    expect_state_near(fast, {dense.data().begin(), dense.data().end()});

    // apply_rz vs apply_unitary1(diag(e^{-i theta/2}, e^{i theta/2}))
    fast = make_state(n, amps);
    dense = make_state(n, amps);
    fast.apply_rz(q, theta);
    dense.apply_unitary1(q, {std::polar(1.0, -theta * 0.5), Amp{0, 0},
                             Amp{0, 0}, std::polar(1.0, theta * 0.5)});
    expect_state_near(fast, {dense.data().begin(), dense.data().end()});
  }
}

TEST_P(KernelEquivalence, SingleQubitDiagonalsMatchNaiveSweep) {
  const int n = GetParam();
  util::Rng rng(2000 + static_cast<std::uint64_t>(n));
  for (int q = 0; q < n; ++q) {
    const double theta = util::uniform(rng, -3.0, 3.0);
    const auto amps = random_amplitudes(n, rng);

    StateVector sv = make_state(n, amps);
    auto ref = amps;
    sv.apply_z(q);
    ref_z(ref, q);
    expect_state_near(sv, ref);

    sv = make_state(n, amps);
    ref = amps;
    sv.apply_rz(q, theta);
    ref_rz(ref, q, theta);
    expect_state_near(sv, ref);
  }
}

TEST_P(KernelEquivalence, TwoQubitKernelsMatchNaiveSweep) {
  const int n = GetParam();
  if (n < 2) GTEST_SKIP() << "two-qubit gates need n >= 2";
  util::Rng rng(3000 + static_cast<std::uint64_t>(n));
  // Every ordered qubit pair, so low/high and adjacent/spread index-run
  // shapes (including the table-driven min(a,b) < 3 paths) all execute.
  for (int qa = 0; qa < n; ++qa) {
    for (int qb = 0; qb < n; ++qb) {
      if (qa == qb) continue;
      const double theta = util::uniform(rng, -3.0, 3.0);
      const auto amps = random_amplitudes(n, rng);

      StateVector sv = make_state(n, amps);
      auto ref = amps;
      sv.apply_cx(qa, qb);
      ref_cx(ref, qa, qb);
      expect_state_near(sv, ref);

      sv = make_state(n, amps);
      ref = amps;
      sv.apply_rzz(qa, qb, theta);
      ref_rzz(ref, qa, qb, theta);
      expect_state_near(sv, ref);
    }
  }
}

TEST_P(KernelEquivalence, RxLayerMatchesPerQubitLoop) {
  const int n = GetParam();
  util::Rng rng(4000 + static_cast<std::uint64_t>(n));
  for (const double theta : {0.0, 0.37, -1.9, std::numbers::pi}) {
    const auto amps = random_amplitudes(n, rng);
    StateVector fused = make_state(n, amps);
    StateVector unfused = make_state(n, amps);
    fused.apply_rx_layer(theta);
    for (int q = 0; q < n; ++q) unfused.apply_rx(q, theta);
    expect_state_near(fused, {unfused.data().begin(), unfused.data().end()},
                      1e-10);
  }
}

TEST_P(KernelEquivalence, ExpectationsMatchManualSums) {
  const int n = GetParam();
  util::Rng rng(5000 + static_cast<std::uint64_t>(n));
  const auto amps = random_amplitudes(n, rng);
  const StateVector sv = make_state(n, amps);
  for (int qa = 0; qa < n; ++qa) {
    for (int qb = 0; qb < n; ++qb) {
      double manual = 0.0;
      for (std::size_t i = 0; i < amps.size(); ++i) {
        const bool za = (i >> qa) & 1;
        const bool zb = (i >> qb) & 1;
        manual += (za == zb) ? std::norm(amps[i]) : -std::norm(amps[i]);
      }
      EXPECT_NEAR(expectation_zz(sv, qa, qb), manual, 1e-12)
          << "qa=" << qa << " qb=" << qb;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(QubitCounts, KernelEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// The fused mixer switches index strategy at its internal cache-block /
// group boundaries (12 low qubits per block, high qubits in groups of 8).
// 13 and 14 qubits exercise the gathered high-qubit pass; 21 qubits forces
// a second high-qubit group.
class RxLayerBlockBoundaries : public ::testing::TestWithParam<int> {};

TEST_P(RxLayerBlockBoundaries, MatchesPerQubitLoopAcrossPasses) {
  const int n = GetParam();
  util::Rng rng(6000 + static_cast<std::uint64_t>(n));
  const auto amps = random_amplitudes(n, rng);
  StateVector fused = make_state(n, amps);
  StateVector unfused = make_state(n, amps);
  fused.apply_rx_layer(0.81);
  for (int q = 0; q < n; ++q) unfused.apply_rx(q, 0.81);
  expect_state_near(fused, {unfused.data().begin(), unfused.data().end()},
                    1e-10);
}

INSTANTIATE_TEST_SUITE_P(AroundBlockSize, RxLayerBlockBoundaries,
                         ::testing::Values(11, 12, 13, 14, 21));

// -------------------------------------------------- sampler edge cases ----

TEST(SamplerEdgeCases, ZeroProbabilityStatesAreNeverSampled) {
  // Mass only on states 1, 4 and 6 of a 3-qubit register; state 0 is a
  // leading zero-probability plateau (the r == 0 draw must skip it) and
  // state 7 a trailing one (the clamp must not land there).
  StateVector sv(3);
  sv.set_amplitude(0, {0.0, 0.0});
  sv.set_amplitude(1, {0.6, 0.0});
  sv.set_amplitude(4, {0.0, 0.6});
  sv.set_amplitude(6, {std::sqrt(1.0 - 2 * 0.36), 0.0});
  util::Rng rng(17);
  const auto shots = sample_counts(sv, 20000, rng);
  ASSERT_EQ(shots.size(), 20000u);
  for (const BasisState s : shots) {
    EXPECT_TRUE(s == 1 || s == 4 || s == 6) << "sampled impossible state " << s;
  }
}

TEST(SamplerEdgeCases, AllMassOnLastStateAlwaysSampled) {
  StateVector sv(4);
  sv.set_amplitude(0, {0.0, 0.0});
  sv.set_amplitude(15, {0.0, 1.0});
  util::Rng rng(23);
  for (const BasisState s : sample_counts(sv, 5000, rng)) {
    EXPECT_EQ(s, 15u);
  }
}

TEST(SamplerEdgeCases, SingleNonzeroStateAmongMany) {
  // A mid-vector spike surrounded by zero plateaus on both sides.
  StateVector sv(6);
  sv.set_amplitude(0, {0.0, 0.0});
  sv.set_amplitude(37, {1.0, 0.0});
  util::Rng rng(29);
  for (const BasisState s : sample_counts(sv, 2000, rng)) {
    EXPECT_EQ(s, 37u);
  }
}

TEST(SamplerEdgeCases, ZeroShotsReturnsEmpty) {
  StateVector sv = StateVector::plus_state(3);
  util::Rng rng(31);
  EXPECT_TRUE(sample_counts(sv, 0, rng).empty());
}

TEST(SamplerEdgeCases, ZeroNormStateThrows) {
  StateVector sv(2);
  sv.set_amplitude(0, {0.0, 0.0});  // state is now all-zero
  util::Rng rng(37);
  EXPECT_THROW(sample_counts(sv, 10, rng), std::runtime_error);
}

TEST(SamplerEdgeCases, ArgmaxTieBreaksToSmallestIndex) {
  StateVector sv = StateVector::plus_state(5);  // every probability equal
  EXPECT_EQ(argmax_probability(sv), 0u);
}

}  // namespace
}  // namespace qq::sim
