#pragma once
// Multi-threaded state-vector quantum simulator — the stand-in for the
// paper's MPI-distributed Aer backend. Exact complex-double amplitudes,
// gate kernels parallelized over the global thread pool, and a fast
// diagonal path that lets a whole QAOA cost layer exp(-i γ H_C) execute as
// one elementwise sweep.
//
// Qubit i corresponds to bit i of the basis-state index (little-endian,
// matching the MaxCut bit-string convention where bit i is node i's side).

#include <array>
#include <complex>
#include <cstdint>
#include <vector>

#include "qsim/level_table.hpp"
#include "util/rng.hpp"

namespace qq::sim {

using Amplitude = std::complex<double>;
using BasisState = std::uint64_t;

/// Hard cap: 2^28 amplitudes = 4 GiB of complex<double>. The paper's 33
/// qubits needed 512 HPE-Cray EX nodes; see DESIGN.md on scaling.
inline constexpr int kMaxQubits = 28;

class StateVector {
 public:
  /// Initializes |0...0>.
  explicit StateVector(int num_qubits);

  /// |+>^n — the QAOA ansatz input state (Eq. 2).
  static StateVector plus_state(int num_qubits);

  /// In-place re-initialization to |+>^n without touching the allocation —
  /// the workspace-reuse primitive: a QAOA objective evaluation resets its
  /// persistent state vector instead of constructing a fresh 2^n x 16 B
  /// buffer per COBYLA iteration.
  void reset_to_plus();

  int num_qubits() const noexcept { return num_qubits_; }
  std::size_t size() const noexcept { return amps_.size(); }

  const std::vector<Amplitude>& data() const noexcept { return amps_; }
  Amplitude amplitude(BasisState s) const { return amps_.at(s); }
  void set_amplitude(BasisState s, Amplitude a) { amps_.at(s) = a; }

  double norm_squared() const;
  void normalize();

  // --- single-qubit gates -------------------------------------------------
  void apply_h(int q);
  void apply_x(int q);
  void apply_y(int q);
  void apply_z(int q);
  void apply_rx(int q, double theta);  ///< exp(-i θ X/2)
  /// Fused whole-layer mixer: RX(θ) on EVERY qubit in a few cache-blocked
  /// passes over the state instead of n separate full sweeps. Equivalent to
  /// `for (q = 0..n-1) apply_rx(q, θ)`; see DESIGN.md "Kernel index
  /// enumeration".
  void apply_rx_layer(double theta);
  void apply_rz(int q, double theta);  ///< exp(-i θ Z/2)
  /// Arbitrary 2x2 unitary, row-major {m00, m01, m10, m11}.
  void apply_unitary1(int q, const std::array<Amplitude, 4>& m);

  // --- two-qubit gates ----------------------------------------------------
  void apply_cx(int control, int target);
  void apply_rzz(int a, int b, double theta);  ///< exp(-i θ Z_a Z_b / 2)

  // --- diagonal fast path ---------------------------------------------------
  /// amp[s] *= exp(-i * scale * values[s]) for every basis state s.
  /// `values` must have 2^n entries. One bandwidth-bound sweep implements a
  /// full QAOA cost layer when `values` is the per-state cut table.
  void apply_diagonal_phase(const std::vector<double>& values, double scale);
  /// The same sweep from a level table: one std::polar per level, then
  /// amp[s] *= phase[level[s]]. Bit-for-bit the dense overload on the table
  /// `levels` was built from. levels.size() must be 2^n.
  void apply_diagonal_phase(const LevelTable& levels, double scale);

  // --- half of a flip-symmetric state ---------------------------------------
  // An (n+1)-qubit state with psi(z) == psi(~z), as every QAOA MaxCut state
  // has, stored as this n-qubit vector: slot z holds psi(z) for the z whose
  // top bit (qubit n) is 0, and so also psi(~z). The level sweep and
  // apply_rx_layer act on such a half unchanged; these add the top qubit.
  // Each amplitude is the same floating-point expression the full-state
  // kernels compute (DESIGN.md "Flip symmetry").

  /// The half of |+>^(n+1): every amplitude 1/sqrt(2^(n+1)).
  void reset_to_plus_half();
  /// RX(theta) on the top qubit: slot z pairs with slot z ^ (2^n - 1), which
  /// holds psi(z | 2^n). Apply it after apply_rx_layer, the qubit order of
  /// the full sweep. At n = 0 the one slot pairs with itself.
  void apply_rx_mirror(double theta);
  /// Write the full (n+1)-qubit state into `full`, reconstructing it if its
  /// qubit count differs: slot z below 2^n, slot 2^(n+1) - 1 - z above.
  void expand_half(StateVector& full) const;

 private:
  void check_qubit(int q) const;
  void fill_real(double a);

  int num_qubits_;
  std::vector<Amplitude> amps_;
  /// Level-sweep scratch: one phase per level, grown once and reused.
  std::vector<Amplitude> phase_;
};

}  // namespace qq::sim
