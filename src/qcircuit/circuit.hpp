#pragma once
// Gate-level circuit intermediate representation.
//
// This IR plus the pass pipeline in passes.hpp stands in for the Classiq
// synthesis engine the paper uses (§3.5): a high-level combinatorial model
// (the QAOA ansatz over a graph) is lowered to gates and then optimized for
// depth and two-qubit-gate count.

#include <cstdint>
#include <vector>

namespace qq::circuit {

/// The gates programs emit: `qaoa_ansatz` builds H, RZZ and RX, and
/// `transpile_to_cx_basis` lowers RZZ to CX and RZ.
enum class GateKind : std::uint8_t {
  kH,
  kRx,
  kRz,
  kCx,
  kRzz,
};

bool is_two_qubit(GateKind kind) noexcept;
bool is_rotation(GateKind kind) noexcept;

struct Gate {
  GateKind kind;
  int q0 = -1;
  int q1 = -1;       ///< -1 for single-qubit gates
  double param = 0;  ///< rotation angle where applicable
};

struct CircuitStats {
  std::size_t total_gates = 0;
  std::size_t two_qubit_gates = 0;
  std::size_t rotations = 0;
  int depth = 0;      ///< greedy ASAP layering
  int depth_2q = 0;   ///< depth counting only two-qubit layers
};

class Circuit {
 public:
  explicit Circuit(int num_qubits);

  int num_qubits() const noexcept { return num_qubits_; }
  const std::vector<Gate>& gates() const noexcept { return gates_; }
  std::size_t size() const noexcept { return gates_.size(); }

  // Fluent emitters; all validate qubit indices.
  Circuit& h(int q);
  Circuit& rx(int q, double theta);
  Circuit& rz(int q, double theta);
  Circuit& cx(int control, int target);
  Circuit& rzz(int a, int b, double theta);

  void append(const Gate& gate);

  CircuitStats stats() const;

 private:
  void check_qubit(int q) const;
  int num_qubits_;
  std::vector<Gate> gates_;
};

}  // namespace qq::circuit
