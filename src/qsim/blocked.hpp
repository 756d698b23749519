#pragma once
// Cache-blocked / distribution-emulating state vector.
//
// The paper's Aer backend runs MPI-distributed with the cache-blocking
// technique of Doi & Horii (QCE 2020, the paper's ref. [34]): amplitudes
// are split into 2^k blocks of 2^(n-k); gates on the low n-k "local"
// qubits act within blocks, while gates on the top k "global" qubits pair
// blocks and require data exchange (inter-rank communication on the real
// machine). This class reproduces that execution structure in one address
// space — block-local kernels, explicit pairwise block exchanges for
// global qubits — and *accounts* the communication volume, so the
// distribution cost of a circuit can be measured without MPI.
//
// Semantics are bit-identical to the flat StateVector (tests enforce it).

#include <complex>
#include <cstdint>
#include <vector>

#include "qsim/statevector.hpp"

namespace qq::sim {

struct BlockedStats {
  /// Amplitudes moved between blocks (each exchanged pair counts both
  /// halves) — the proxy for MPI traffic.
  std::uint64_t amps_exchanged = 0;
  /// Gates that needed an exchange (acted on a global qubit).
  std::uint64_t global_gates = 0;
  /// Gates served entirely block-locally.
  std::uint64_t local_gates = 0;
};

class BlockedStateVector {
 public:
  /// 2^block_bits blocks ("ranks"); block_bits must not exceed num_qubits.
  BlockedStateVector(int num_qubits, int block_bits);

  int num_qubits() const noexcept { return num_qubits_; }
  int block_bits() const noexcept { return block_bits_; }
  std::size_t num_blocks() const noexcept { return blocks_.size(); }
  const BlockedStats& stats() const noexcept { return stats_; }

  /// Initialize to |+>^n (the QAOA input state).
  void set_plus_state();

  void apply_rx(int q, double theta);
  void apply_rzz(int a, int b, double theta);

  /// Gather into a flat state vector (tests / final measurement).
  StateVector to_statevector() const;

 private:
  bool is_global(int q) const noexcept { return q >= local_bits_; }
  void apply_local_1q(int q, const std::array<Amplitude, 4>& m);
  /// Apply a 2x2 gate on a global qubit: pair blocks differing in the
  /// qubit's block-index bit, exchange-and-combine.
  void apply_global_1q(int q, const std::array<Amplitude, 4>& m);

  int num_qubits_;
  int block_bits_;
  int local_bits_;
  std::vector<std::vector<Amplitude>> blocks_;
  BlockedStats stats_;
};

}  // namespace qq::sim
