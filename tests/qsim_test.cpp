// Tests for the state-vector simulator, cross-validated against an
// independent dense-matrix reference implementation (full 2^n x 2^n
// operators built from first principles — slow but unarguable).

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "qsim/measure.hpp"
#include "qsim/statevector.hpp"
#include "util/rng.hpp"

namespace qq::sim {
namespace {

using Amp = std::complex<double>;
constexpr double kTol = 1e-10;

// ------------------------------------------------ dense reference model ----

namespace ref {

using Matrix = std::vector<std::vector<Amp>>;  // full 2^n x 2^n operator

Matrix identity(std::size_t dim) {
  Matrix m(dim, std::vector<Amp>(dim, Amp{0, 0}));
  for (std::size_t i = 0; i < dim; ++i) m[i][i] = Amp{1, 0};
  return m;
}

/// Embed a 2x2 gate acting on qubit q (bit q of the index).
Matrix one_qubit(int n, int q, const std::array<Amp, 4>& u) {
  const std::size_t dim = std::size_t{1} << n;
  Matrix m(dim, std::vector<Amp>(dim, Amp{0, 0}));
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      if ((i & ~(std::size_t{1} << q)) != (j & ~(std::size_t{1} << q))) {
        continue;  // all other bits must match
      }
      const std::size_t bi = (i >> q) & 1;
      const std::size_t bj = (j >> q) & 1;
      m[i][j] = u[bi * 2 + bj];
    }
  }
  return m;
}

Matrix cx(int n, int control, int target) {
  const std::size_t dim = std::size_t{1} << n;
  Matrix m(dim, std::vector<Amp>(dim, Amp{0, 0}));
  for (std::size_t j = 0; j < dim; ++j) {
    std::size_t i = j;
    if ((j >> control) & 1) i = j ^ (std::size_t{1} << target);
    m[i][j] = Amp{1, 0};
  }
  return m;
}

Matrix diagonal_phase(int n, const std::vector<double>& phases) {
  const std::size_t dim = std::size_t{1} << n;
  Matrix m(dim, std::vector<Amp>(dim, Amp{0, 0}));
  for (std::size_t j = 0; j < dim; ++j) {
    m[j][j] = std::polar(1.0, phases[j]);
  }
  return m;
}

std::vector<Amp> apply(const Matrix& m, const std::vector<Amp>& v) {
  std::vector<Amp> out(v.size(), Amp{0, 0});
  for (std::size_t i = 0; i < v.size(); ++i) {
    for (std::size_t j = 0; j < v.size(); ++j) out[i] += m[i][j] * v[j];
  }
  return out;
}

std::array<Amp, 4> h_gate() {
  const double s = 1.0 / std::sqrt(2.0);
  return {Amp{s, 0}, Amp{s, 0}, Amp{s, 0}, Amp{-s, 0}};
}
std::array<Amp, 4> rx_gate(double t) {
  return {Amp{std::cos(t / 2), 0}, Amp{0, -std::sin(t / 2)},
          Amp{0, -std::sin(t / 2)}, Amp{std::cos(t / 2), 0}};
}
std::array<Amp, 4> rz_gate(double t) {
  return {std::polar(1.0, -t / 2), Amp{0, 0}, Amp{0, 0}, std::polar(1.0, t / 2)};
}
std::array<Amp, 4> x_gate() {
  return {Amp{0, 0}, Amp{1, 0}, Amp{1, 0}, Amp{0, 0}};
}
std::array<Amp, 4> y_gate() {
  return {Amp{0, 0}, Amp{0, -1}, Amp{0, 1}, Amp{0, 0}};
}
std::array<Amp, 4> z_gate() {
  return {Amp{1, 0}, Amp{0, 0}, Amp{0, 0}, Amp{-1, 0}};
}

}  // namespace ref

void expect_state_eq(const StateVector& sv, const std::vector<Amp>& expected,
                     double tol = kTol) {
  ASSERT_EQ(sv.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(sv.data()[i].real(), expected[i].real(), tol) << "amp " << i;
    EXPECT_NEAR(sv.data()[i].imag(), expected[i].imag(), tol) << "amp " << i;
  }
}

// ----------------------------------------------------------- basic state ----

TEST(StateVector, InitializesToZeroState) {
  StateVector sv(3);
  EXPECT_EQ(sv.size(), 8u);
  EXPECT_NEAR(std::abs(sv.amplitude(0) - Amp{1, 0}), 0.0, kTol);
  for (std::size_t i = 1; i < 8; ++i) {
    EXPECT_NEAR(std::abs(sv.amplitude(i)), 0.0, kTol);
  }
  EXPECT_NEAR(sv.norm_squared(), 1.0, kTol);
}

TEST(StateVector, PlusStateIsUniform) {
  const StateVector sv = StateVector::plus_state(4);
  const double expected = 1.0 / 4.0;  // amplitude 1/sqrt(16)
  for (std::size_t i = 0; i < sv.size(); ++i) {
    EXPECT_NEAR(sv.amplitude(i).real(), expected, kTol);
    EXPECT_NEAR(sv.amplitude(i).imag(), 0.0, kTol);
  }
}

TEST(StateVector, ResetToPlusMatchesPlusStateBitForBit) {
  // The workspace-reuse primitive: an arbitrarily mangled state reset in
  // place must equal a freshly constructed |+>^n exactly.
  StateVector sv(5);
  sv.apply_h(0);
  sv.apply_rx(3, 0.7);
  sv.apply_rzz(1, 4, 1.1);
  sv.reset_to_plus();
  const StateVector fresh = StateVector::plus_state(5);
  ASSERT_EQ(sv.size(), fresh.size());
  for (std::size_t i = 0; i < sv.size(); ++i) {
    EXPECT_EQ(sv.amplitude(i), fresh.amplitude(i));
  }
}

TEST(StateVector, RejectsBadQubitCounts) {
  EXPECT_THROW(StateVector(-1), std::invalid_argument);
  EXPECT_THROW(StateVector(kMaxQubits + 1), std::invalid_argument);
}

TEST(StateVector, HOnZeroGivesPlus) {
  StateVector sv(1);
  sv.apply_h(0);
  const double s = 1.0 / std::sqrt(2.0);
  expect_state_eq(sv, {Amp{s, 0}, Amp{s, 0}});
  sv.apply_h(0);  // H^2 = I
  expect_state_eq(sv, {Amp{1, 0}, Amp{0, 0}});
}

TEST(StateVector, BellStateProbabilities) {
  StateVector sv(2);
  sv.apply_h(0);
  sv.apply_cx(0, 1);
  const auto probs = probabilities(sv);
  EXPECT_NEAR(probs[0b00], 0.5, kTol);
  EXPECT_NEAR(probs[0b11], 0.5, kTol);
  EXPECT_NEAR(probs[0b01], 0.0, kTol);
  EXPECT_NEAR(probs[0b10], 0.0, kTol);
  EXPECT_NEAR(expectation_zz(sv, 0, 1), 1.0, kTol);
}

TEST(StateVector, RzzAppliesCorrectPhases) {
  const double theta = 0.7;
  StateVector sv = StateVector::plus_state(2);
  sv.apply_rzz(0, 1, theta);
  // states 00 and 11: e^{-i theta/2}; 01 and 10: e^{+i theta/2}
  const Amp same = std::polar(0.5, -theta / 2);
  const Amp diff = std::polar(0.5, theta / 2);
  expect_state_eq(sv, {same, diff, diff, same});
}

TEST(StateVector, DiagonalPhaseMatchesExplicitMultiplication) {
  StateVector sv = StateVector::plus_state(3);
  const std::vector<double> values = {0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0};
  const double scale = 0.31;
  StateVector expected = sv;
  sv.apply_diagonal_phase(values, scale);
  for (std::size_t i = 0; i < sv.size(); ++i) {
    const Amp want = expected.amplitude(i) * std::polar(1.0, -scale * values[i]);
    EXPECT_NEAR(std::abs(sv.amplitude(i) - want), 0.0, kTol);
  }
  EXPECT_THROW(sv.apply_diagonal_phase({1.0, 2.0}, 1.0), std::invalid_argument);
}

TEST(StateVector, GateArgumentValidation) {
  StateVector sv(2);
  EXPECT_THROW(sv.apply_h(2), std::out_of_range);
  EXPECT_THROW(sv.apply_h(-1), std::out_of_range);
  EXPECT_THROW(sv.apply_cx(0, 0), std::invalid_argument);
  EXPECT_THROW(sv.apply_rzz(1, 1, 0.3), std::invalid_argument);
  EXPECT_THROW(sv.apply_cx(0, 3), std::out_of_range);
}

TEST(StateVector, NormalizeRestoresUnitNorm) {
  StateVector sv(2);
  sv.set_amplitude(0, Amp{3.0, 0.0});
  sv.set_amplitude(3, Amp{0.0, 4.0});
  sv.normalize();
  EXPECT_NEAR(sv.norm_squared(), 1.0, kTol);
  EXPECT_NEAR(std::abs(sv.amplitude(0)), 0.6, kTol);
  EXPECT_NEAR(std::abs(sv.amplitude(3)), 0.8, kTol);
}

// --------------------------------------- randomized reference validation ----

/// Random circuits on n qubits, every gate checked against the dense model.
class ReferenceValidation : public ::testing::TestWithParam<int> {};

TEST_P(ReferenceValidation, RandomCircuitMatchesDenseModel) {
  const int n = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(n) * 7919 + 5);
  StateVector sv(n);
  std::vector<Amp> ref_state(std::size_t{1} << n, Amp{0, 0});
  ref_state[0] = Amp{1, 0};

  for (int step = 0; step < 40; ++step) {
    const int kind = util::uniform_int(rng, 0, 7);
    const int q = util::uniform_int(rng, 0, n - 1);
    int q2 = util::uniform_int(rng, 0, n - 1);
    while (n > 1 && q2 == q) q2 = util::uniform_int(rng, 0, n - 1);
    const double theta = util::uniform(rng, -3.0, 3.0);
    switch (kind) {
      case 0:
        sv.apply_h(q);
        ref_state = ref::apply(ref::one_qubit(n, q, ref::h_gate()), ref_state);
        break;
      case 1:
        sv.apply_x(q);
        ref_state = ref::apply(ref::one_qubit(n, q, ref::x_gate()), ref_state);
        break;
      case 2:
        sv.apply_y(q);
        ref_state = ref::apply(ref::one_qubit(n, q, ref::y_gate()), ref_state);
        break;
      case 3:
        sv.apply_z(q);
        ref_state = ref::apply(ref::one_qubit(n, q, ref::z_gate()), ref_state);
        break;
      case 4:
        sv.apply_rx(q, theta);
        ref_state =
            ref::apply(ref::one_qubit(n, q, ref::rx_gate(theta)), ref_state);
        break;
      case 5:
        sv.apply_rz(q, theta);
        ref_state =
            ref::apply(ref::one_qubit(n, q, ref::rz_gate(theta)), ref_state);
        break;
      case 6:
        if (n < 2) continue;
        sv.apply_cx(q, q2);
        ref_state = ref::apply(ref::cx(n, q, q2), ref_state);
        break;
      default: {
        if (n < 2) continue;
        sv.apply_rzz(q, q2, theta);
        std::vector<double> phases(std::size_t{1} << n, 0.0);
        for (std::size_t s = 0; s < phases.size(); ++s) {
          const bool za = (s >> q) & 1;
          const bool zb = (s >> q2) & 1;
          phases[s] = (za == zb) ? -theta / 2 : theta / 2;
        }
        ref_state = ref::apply(ref::diagonal_phase(n, phases), ref_state);
        break;
      }
    }
  }
  for (std::size_t i = 0; i < ref_state.size(); ++i) {
    EXPECT_NEAR(std::abs(sv.data()[i] - ref_state[i]), 0.0, 1e-9)
        << "amplitude " << i;
  }
  EXPECT_NEAR(sv.norm_squared(), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(QubitCounts, ReferenceValidation,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(StateVector, NormPreservedOnLargerRandomCircuit) {
  const int n = 12;
  util::Rng rng(99);
  StateVector sv = StateVector::plus_state(n);
  for (int step = 0; step < 200; ++step) {
    const int q = util::uniform_int(rng, 0, n - 1);
    int q2 = util::uniform_int(rng, 0, n - 1);
    while (q2 == q) q2 = util::uniform_int(rng, 0, n - 1);
    switch (step % 5) {
      case 0: sv.apply_h(q); break;
      case 1: sv.apply_rx(q, util::uniform(rng, -2.0, 2.0)); break;
      case 2: sv.apply_cx(q, q2); break;
      case 3: sv.apply_rzz(q, q2, util::uniform(rng, -2.0, 2.0)); break;
      default: sv.apply_rz(q, util::uniform(rng, -2.0, 2.0)); break;
    }
  }
  EXPECT_NEAR(sv.norm_squared(), 1.0, 1e-9);
}

// ---------------------------------------------------------- measurement ----

TEST(Measure, ProbabilitiesSumToOne) {
  util::Rng rng(7);
  StateVector sv = StateVector::plus_state(6);
  for (int i = 0; i < 6; ++i) sv.apply_rx(i, util::uniform(rng, -2.0, 2.0));
  const auto probs = probabilities(sv);
  double sum = 0.0;
  for (double p : probs) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Measure, ArgmaxFindsDominantState) {
  StateVector sv(3);
  sv.apply_x(0);
  sv.apply_x(2);  // |101> = index 5
  EXPECT_EQ(argmax_probability(sv), 5u);
}

TEST(Measure, TopKSortedAndConsistent) {
  StateVector sv(2);
  sv.apply_rx(0, 0.4);
  sv.apply_rx(1, 1.2);
  const auto top = top_k_states(sv, 4);
  ASSERT_EQ(top.size(), 4u);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].second, top[i].second);
  }
  const auto probs = probabilities(sv);
  for (const auto& [state, p] : top) {
    EXPECT_NEAR(probs[state], p, kTol);
  }
  EXPECT_EQ(top_k_states(sv, 2).size(), 2u);
  EXPECT_EQ(top_k_states(sv, 100).size(), 4u);  // clamped to 2^n
  EXPECT_THROW(top_k_states(sv, 0), std::invalid_argument);
}

TEST(Measure, SamplingFrequenciesTrackProbabilities) {
  StateVector sv(2);
  sv.apply_rx(0, 2.0 * std::acos(std::sqrt(0.75)));  // P(q0=1) = 0.25
  util::Rng rng(11);
  const auto shots = sample_counts(sv, 40000, rng);
  int ones = 0;
  for (const BasisState s : shots) ones += static_cast<int>(s & 1);
  EXPECT_NEAR(static_cast<double>(ones) / 40000.0, 0.25, 0.01);
}

TEST(Measure, SamplingDeterministicPerSeed) {
  StateVector sv = StateVector::plus_state(4);
  util::Rng a(5), b(5);
  EXPECT_EQ(sample_counts(sv, 100, a), sample_counts(sv, 100, b));
}

TEST(Measure, ExpectationZzOnProductAndEntangledStates) {
  StateVector sv(2);
  sv.apply_x(1);  // |10>
  EXPECT_NEAR(expectation_zz(sv, 0, 1), -1.0, kTol);
  StateVector bell(2);
  bell.apply_h(0);
  bell.apply_cx(0, 1);
  EXPECT_NEAR(expectation_zz(bell, 0, 1), 1.0, kTol);
  EXPECT_THROW(expectation_zz(bell, 0, 5), std::out_of_range);
}

TEST(Measure, ExpectationDiagonalMatchesManualSum) {
  util::Rng rng(13);
  StateVector sv = StateVector::plus_state(5);
  // RZ turns each |+> off the X axis, so the RX that follows moves the
  // Z-basis populations away from uniform.
  for (int i = 0; i < 5; ++i) {
    sv.apply_rz(i, 0.5 * (i + 1));
    sv.apply_rx(i, util::uniform(rng, -1.5, 1.5));
  }
  std::vector<double> values(sv.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = util::uniform(rng, -3.0, 3.0);
  }
  double manual = 0.0;
  const auto probs = probabilities(sv);
  for (std::size_t i = 0; i < values.size(); ++i) manual += probs[i] * values[i];
  EXPECT_NEAR(expectation_diagonal(sv, values), manual, 1e-9);
  EXPECT_THROW(expectation_diagonal(sv, {1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace qq::sim
