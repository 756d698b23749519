#include "qcircuit/noise.hpp"

#include <stdexcept>

#include "qcircuit/execute.hpp"

namespace qq::circuit {

void NoiseModel::validate() const {
  for (const double p : {depolarizing_1q, depolarizing_2q, amplitude_damping,
                         readout_flip}) {
    if (p < 0.0 || p > 1.0) {
      throw std::invalid_argument(
          "NoiseModel: probabilities must lie in [0, 1]");
    }
  }
}

namespace {

void maybe_pauli(sim::StateVector& sv, int qubit, double probability,
                 util::Rng& rng) {
  if (probability <= 0.0 || !util::bernoulli(rng, probability)) return;
  switch (util::uniform_int(rng, 0, 2)) {
    case 0: sv.apply_x(qubit); break;
    case 1: sv.apply_y(qubit); break;
    default: sv.apply_z(qubit); break;
  }
}

/// Amplitude damping via quantum-trajectory (Monte-Carlo wavefunction)
/// unraveling. Kraus operators for rate gamma:
///   K0 = diag(1, sqrt(1 - gamma)),   K1 = sqrt(gamma) |0><1|.
/// The jump branch K1 fires with its Born probability gamma * P(q = 1);
/// either branch is applied and the state renormalized.
void maybe_damp(sim::StateVector& sv, int qubit, double gamma,
                util::Rng& rng) {
  if (gamma <= 0.0) return;
  const auto& amps = sv.data();
  const sim::BasisState bit = sim::BasisState{1} << qubit;
  double p1 = 0.0;  // population of |1> on this qubit
  for (std::size_t i = 0; i < amps.size(); ++i) {
    if (i & bit) p1 += std::norm(amps[i]);
  }
  const double p_jump = gamma * p1;
  if (p_jump > 0.0 && util::bernoulli(rng, p_jump)) {
    // Jump: |...1...> components collapse onto |...0...>.
    for (std::size_t i = 0; i < amps.size(); ++i) {
      if (i & bit) {
        sv.set_amplitude(i & ~bit, sv.amplitude(i));
        sv.set_amplitude(i, {0.0, 0.0});
      }
    }
  } else if (p1 > 0.0) {
    // No-jump evolution: |1> components shrink by sqrt(1 - gamma).
    const double scale = std::sqrt(1.0 - gamma);
    for (std::size_t i = 0; i < amps.size(); ++i) {
      if (i & bit) sv.set_amplitude(i, sv.amplitude(i) * scale);
    }
  } else {
    return;  // qubit already in |0>: channel acts trivially
  }
  sv.normalize();
}

}  // namespace

sim::StateVector run_trajectory(const Circuit& qc, const NoiseModel& noise,
                                util::Rng& rng) {
  noise.validate();
  sim::StateVector sv(qc.num_qubits());
  for (const Gate& g : qc.gates()) {
    apply_gate(g, sv);
    if (is_two_qubit(g.kind)) {
      maybe_pauli(sv, g.q0, noise.depolarizing_2q, rng);
      maybe_pauli(sv, g.q1, noise.depolarizing_2q, rng);
      maybe_damp(sv, g.q0, noise.amplitude_damping, rng);
      maybe_damp(sv, g.q1, noise.amplitude_damping, rng);
    } else {
      maybe_pauli(sv, g.q0, noise.depolarizing_1q, rng);
      maybe_damp(sv, g.q0, noise.amplitude_damping, rng);
    }
  }
  return sv;
}

std::vector<sim::BasisState> sample_noisy(const Circuit& qc,
                                          const NoiseModel& noise,
                                          const NoisySamplingOptions& options,
                                          util::Rng& rng) {
  noise.validate();
  if (options.shots < 1 || options.trajectories < 1) {
    throw std::invalid_argument("sample_noisy: shots/trajectories must be >= 1");
  }
  const bool gate_noise = noise.gate_noise();
  const int trajectories = gate_noise ? options.trajectories : 1;
  const int base = options.shots / trajectories;
  const int remainder = options.shots % trajectories;

  std::vector<sim::BasisState> shots;
  shots.reserve(static_cast<std::size_t>(options.shots));
  for (int t = 0; t < trajectories; ++t) {
    const int count = base + (t < remainder ? 1 : 0);
    if (count == 0) continue;
    const sim::StateVector sv = gate_noise ? run_trajectory(qc, noise, rng)
                                           : run(qc);
    auto batch = sim::sample_counts(sv, count, rng);
    shots.insert(shots.end(), batch.begin(), batch.end());
  }
  if (noise.readout_flip > 0.0) {
    const int n = qc.num_qubits();
    for (sim::BasisState& s : shots) {
      for (int q = 0; q < n; ++q) {
        if (util::bernoulli(rng, noise.readout_flip)) {
          s ^= (sim::BasisState{1} << q);
        }
      }
    }
  }
  return shots;
}

double noisy_expectation_diagonal(const Circuit& qc, const NoiseModel& noise,
                                  const std::vector<double>& values,
                                  int trajectories, util::Rng& rng) {
  noise.validate();
  if (trajectories < 1) {
    throw std::invalid_argument(
        "noisy_expectation_diagonal: trajectories must be >= 1");
  }
  if (!noise.gate_noise()) {
    return sim::expectation_diagonal(run(qc), values);
  }
  double sum = 0.0;
  for (int t = 0; t < trajectories; ++t) {
    const sim::StateVector sv = run_trajectory(qc, noise, rng);
    sum += sim::expectation_diagonal(sv, values);
  }
  return sum / trajectories;
}

}  // namespace qq::circuit
