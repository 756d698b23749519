#include "qcircuit/circuit.hpp"

#include <algorithm>
#include <stdexcept>

namespace qq::circuit {

bool is_two_qubit(GateKind kind) noexcept {
  switch (kind) {
    case GateKind::kCx:
    case GateKind::kRzz:
      return true;
    default:
      return false;
  }
}

bool is_rotation(GateKind kind) noexcept {
  switch (kind) {
    case GateKind::kRx:
    case GateKind::kRz:
    case GateKind::kRzz:
      return true;
    default:
      return false;
  }
}

Circuit::Circuit(int num_qubits) : num_qubits_(num_qubits) {
  if (num_qubits < 0) {
    throw std::invalid_argument("Circuit: negative qubit count");
  }
}

void Circuit::check_qubit(int q) const {
  if (q < 0 || q >= num_qubits_) {
    throw std::out_of_range("Circuit: qubit index out of range");
  }
}

Circuit& Circuit::h(int q) { append({GateKind::kH, q}); return *this; }
Circuit& Circuit::rx(int q, double theta) {
  append({GateKind::kRx, q, -1, theta});
  return *this;
}
Circuit& Circuit::rz(int q, double theta) {
  append({GateKind::kRz, q, -1, theta});
  return *this;
}
Circuit& Circuit::cx(int control, int target) {
  append({GateKind::kCx, control, target});
  return *this;
}
Circuit& Circuit::rzz(int a, int b, double theta) {
  append({GateKind::kRzz, a, b, theta});
  return *this;
}

void Circuit::append(const Gate& gate) {
  check_qubit(gate.q0);
  if (is_two_qubit(gate.kind)) {
    check_qubit(gate.q1);
    if (gate.q0 == gate.q1) {
      throw std::invalid_argument("Circuit: two-qubit gate on one qubit");
    }
  }
  gates_.push_back(gate);
}

CircuitStats Circuit::stats() const {
  CircuitStats s;
  std::vector<int> busy(static_cast<std::size_t>(num_qubits_), 0);
  std::vector<int> busy_2q(static_cast<std::size_t>(num_qubits_), 0);
  for (const Gate& g : gates_) {
    ++s.total_gates;
    if (is_rotation(g.kind)) ++s.rotations;
    const auto q0 = static_cast<std::size_t>(g.q0);
    if (is_two_qubit(g.kind)) {
      ++s.two_qubit_gates;
      const auto q1 = static_cast<std::size_t>(g.q1);
      const int layer = std::max(busy[q0], busy[q1]) + 1;
      busy[q0] = busy[q1] = layer;
      const int layer2 = std::max(busy_2q[q0], busy_2q[q1]) + 1;
      busy_2q[q0] = busy_2q[q1] = layer2;
    } else {
      busy[q0] += 1;
    }
  }
  for (int level : busy) s.depth = std::max(s.depth, level);
  for (int level : busy_2q) s.depth_2q = std::max(s.depth_2q, level);
  return s;
}

}  // namespace qq::circuit
