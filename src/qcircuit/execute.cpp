#include "qcircuit/execute.hpp"

#include <stdexcept>

namespace qq::circuit {

void apply_gate(const Gate& g, sim::StateVector& sv) {
  switch (g.kind) {
    case GateKind::kH: sv.apply_h(g.q0); break;
    case GateKind::kRx: sv.apply_rx(g.q0, g.param); break;
    case GateKind::kRz: sv.apply_rz(g.q0, g.param); break;
    case GateKind::kCx: sv.apply_cx(g.q0, g.q1); break;
    case GateKind::kRzz: sv.apply_rzz(g.q0, g.q1, g.param); break;
  }
}

void apply(const Circuit& qc, sim::StateVector& sv) {
  if (qc.num_qubits() != sv.num_qubits()) {
    throw std::invalid_argument("circuit::apply: qubit count mismatch");
  }
  for (const Gate& g : qc.gates()) apply_gate(g, sv);
}

sim::StateVector run(const Circuit& qc) {
  sim::StateVector sv(qc.num_qubits());
  apply(qc, sv);
  return sv;
}

}  // namespace qq::circuit
