#pragma once
// Circuit execution on the state-vector simulator.

#include "qcircuit/circuit.hpp"
#include "qsim/statevector.hpp"

namespace qq::circuit {

/// Apply one gate to `sv` — the single gate executor, shared by the ideal
/// run below and the noisy trajectories in noise.hpp.
void apply_gate(const Gate& g, sim::StateVector& sv);

/// Apply every gate of `qc` to `sv` in order.
void apply(const Circuit& qc, sim::StateVector& sv);

/// Run `qc` from |0...0> and return the final state.
sim::StateVector run(const Circuit& qc);

}  // namespace qq::circuit
