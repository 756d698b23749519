#pragma once
// Batched small-state simulator: B independent n-qubit states evaluated in
// one cache-resident sweep. The QAOA^2 decomposition turns one big MaxCut
// into a storm of tiny (<= max_qubits) leaf simulations, and multi-restart /
// multi-candidate QAOA evaluation re-runs the SAME circuit shape with
// different angles — so the batch shares every index computation and every
// cut-table load across B parameter sets instead of sweeping the table B
// times.
//
// Layout: structure-of-arrays with amplitude-major lanes. Amplitude index i
// owns a contiguous row of B complex lanes ([re, im] interleaved per lane):
//
//   data[2*B*i + 2*b]     = Re(amp_i of state b)
//   data[2*B*i + 2*b + 1] = Im(amp_i of state b)
//
// A diagonal op loads values[i] once per row and applies it to all B lanes;
// the mixer butterfly pairs two rows and runs all B lane butterflies on
// cache-hot data. Per-lane arithmetic is exactly the flat StateVector's
// (same operation order, same parallel_reduce chunk plan), so every lane is
// bit-for-bit identical to an independent StateVector evaluation — the
// batched_test suite enforces it for B in {1, 3, 8}.

#include <complex>
#include <cstdint>
#include <vector>

#include "qsim/statevector.hpp"

namespace qq::sim {

class BatchedStateVector {
 public:
  /// B = batch lanes (>= 1). Initializes every lane to |0...0>.
  BatchedStateVector(int num_qubits, int batch);

  int num_qubits() const noexcept { return num_qubits_; }
  int batch() const noexcept { return batch_; }
  /// Amplitudes per lane (2^n).
  std::size_t size() const noexcept { return size_; }

  /// Every lane to |+>^n — the batched QAOA ansatz input.
  void reset_to_plus();

  /// Lane b: amp[s] *= exp(-i * scales[b] * values[s]). One row sweep
  /// applies a full QAOA cost layer to every lane; `values` (the shared cut
  /// table) is loaded once per amplitude for all B lanes. scales.size()
  /// must equal batch().
  void apply_diagonal_phase(const std::vector<double>& values,
                            const std::vector<double>& scales);
  /// The same layer from a level table: std::polar once per (level, lane),
  /// then each row times its level's phase row. Bit-for-bit the dense
  /// overload on the table `levels` was built from, under every SIMD ISA.
  void apply_diagonal_phase(const LevelTable& levels,
                            const std::vector<double>& scales);

  /// Lane b: RX(thetas[b]) on every qubit (the fused mixer layer).
  /// thetas.size() must equal batch().
  void apply_rx_layer(const std::vector<double>& thetas);

  /// Per-lane <diag(values)>: result[b] is bit-for-bit the value
  /// sim::expectation_diagonal would return for lane b's state.
  std::vector<double> expectation_diagonal(
      const std::vector<double>& values) const;

  // --- half of a flip-symmetric state (StateVector's "half" section) ------
  /// Every lane to the half of |+>^(n+1).
  void reset_to_plus_half();
  /// Lane b: RX(thetas[b]) on the top qubit, after apply_rx_layer. Row z
  /// pairs with row z ^ (2^n - 1); at n = 0 the one row pairs with itself.
  void apply_rx_mirror(const std::vector<double>& thetas);
  /// Per-lane <diag(values)> of the (n+1)-qubit states: values has 2^(n+1)
  /// entries, states z >= 2^n read row 2^(n+1) - 1 - z. Lane b is
  /// bit-for-bit sim::expectation_diagonal_mirror of lane_state(b).
  std::vector<double> expectation_diagonal_mirror(
      const std::vector<double>& values) const;

  Amplitude amplitude(int lane, BasisState s) const;
  /// Extract one lane into a flat StateVector (tests, final measurement).
  StateVector lane_state(int lane) const;

 private:
  void check_lane(int lane) const;
  void check_scales(const std::vector<double>& scales) const;
  void fill_real(double a);
  /// cdup_/sdup_ from per-lane mixer angles.
  void load_mixer_angles(const std::vector<double>& thetas);
  /// Σ_z |row z lane b|^2 * values[z] over z < values.size(): size() for a
  /// full state, 2 * size() for a half (rows above mirrored).
  std::vector<double> weighted_norms(const std::vector<double>& values) const;

  int num_qubits_;
  int batch_;
  std::size_t size_;
  /// 2 * batch_ * size_ doubles, amplitude-major (see header comment).
  std::vector<double> data_;
  /// Mixer scratch: per-lane cos/sin duplicated per double, the layout
  /// simd::rx_butterfly_lanes consumes. Sized 2 * batch_.
  std::vector<double> cdup_;
  std::vector<double> sdup_;
  /// Level-sweep scratch: 2 * batch_ doubles per level, row k holding each
  /// lane's [re, im] phase for level k. Grown once and reused.
  std::vector<double> phase_;
};

}  // namespace qq::sim
