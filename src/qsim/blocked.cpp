#include "qsim/blocked.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "qsim/simd.hpp"

namespace qq::sim {

// The diagonal kernel (apply_rzz) streams constant-phase runs through
// simd::scale_run — the same dispatched primitive the flat StateVector's
// rzz path uses — so a blocked state stays bit-for-bit identical to the flat
// one under every backend. apply_rx keeps the generic complex 2x2 form,
// which is the flat apply_unitary1's exact expression.
using simd::scale_run;

BlockedStateVector::BlockedStateVector(int num_qubits, int block_bits)
    : num_qubits_(num_qubits), block_bits_(block_bits) {
  if (num_qubits < 0 || num_qubits > kMaxQubits) {
    throw std::invalid_argument("BlockedStateVector: bad qubit count");
  }
  if (block_bits < 0 || block_bits > num_qubits) {
    throw std::invalid_argument(
        "BlockedStateVector: block_bits must lie in [0, num_qubits]");
  }
  local_bits_ = num_qubits - block_bits;
  const std::size_t block_size = std::size_t{1} << local_bits_;
  blocks_.assign(std::size_t{1} << block_bits_,
                 std::vector<Amplitude>(block_size, Amplitude{0, 0}));
  blocks_[0][0] = Amplitude{1, 0};
}

void BlockedStateVector::set_plus_state() {
  const double a =
      1.0 / std::sqrt(static_cast<double>(std::size_t{1} << num_qubits_));
  for (auto& block : blocks_) {
    for (auto& amp : block) amp = Amplitude{a, 0};
  }
}

void BlockedStateVector::apply_local_1q(int q,
                                        const std::array<Amplitude, 4>& m) {
  const std::size_t bit = std::size_t{1} << q;
  const std::size_t mask = bit - 1;
  const std::size_t pairs = blocks_[0].size() >> 1;
  for (auto& block : blocks_) {
    for (std::size_t t = 0; t < pairs; ++t) {
      const std::size_t i0 = ((t & ~mask) << 1) | (t & mask);
      const std::size_t i1 = i0 | bit;
      const Amplitude a0 = block[i0];
      const Amplitude a1 = block[i1];
      block[i0] = m[0] * a0 + m[1] * a1;
      block[i1] = m[2] * a0 + m[3] * a1;
    }
  }
  ++stats_.local_gates;
}

void BlockedStateVector::apply_global_1q(int q,
                                         const std::array<Amplitude, 4>& m) {
  // Pair blocks differing in this qubit's block-index bit: on the real
  // machine each pair is two MPI ranks exchanging their halves.
  const std::size_t gbit = std::size_t{1} << (q - local_bits_);
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    if (b & gbit) continue;
    auto& lo = blocks_[b];
    auto& hi = blocks_[b | gbit];
    for (std::size_t i = 0; i < lo.size(); ++i) {
      const Amplitude a0 = lo[i];
      const Amplitude a1 = hi[i];
      lo[i] = m[0] * a0 + m[1] * a1;
      hi[i] = m[2] * a0 + m[3] * a1;
    }
  }
  ++stats_.global_gates;
  stats_.amps_exchanged += std::uint64_t{1} << num_qubits_;
}

namespace {
std::array<Amplitude, 4> rx_matrix(double theta) {
  const double c = std::cos(theta * 0.5);
  const double s = std::sin(theta * 0.5);
  return {Amplitude{c, 0}, Amplitude{0, -s}, Amplitude{0, -s}, Amplitude{c, 0}};
}
}  // namespace

void BlockedStateVector::apply_rx(int q, double theta) {
  if (q < 0 || q >= num_qubits_) {
    throw std::out_of_range("BlockedStateVector::apply_rx: bad qubit");
  }
  const auto m = rx_matrix(theta);
  is_global(q) ? apply_global_1q(q, m) : apply_local_1q(q, m);
}

void BlockedStateVector::apply_rzz(int a, int b, double theta) {
  if (a < 0 || a >= num_qubits_ || b < 0 || b >= num_qubits_ || a == b) {
    throw std::invalid_argument("BlockedStateVector::apply_rzz: bad qubits");
  }
  // Diagonal: communication-free regardless of locality. Bit values come
  // from the block index for global qubits and the offset for local ones.
  const Amplitude same = std::polar(1.0, -theta * 0.5);
  const Amplitude diff = std::polar(1.0, theta * 0.5);
  // The parity (bit_a == bit_b) is constant over aligned runs of
  // 2^min(local qubit) amplitudes — the whole block when both qubits are
  // global. Stream each run through one scale_run call.
  std::size_t run = blocks_[0].size();
  if (!is_global(a)) run = std::min(run, std::size_t{1} << a);
  if (!is_global(b)) run = std::min(run, std::size_t{1} << b);
  for (std::size_t blk = 0; blk < blocks_.size(); ++blk) {
    const std::size_t base = blk << local_bits_;
    auto& block = blocks_[blk];
    double* d = reinterpret_cast<double*>(block.data());
    for (std::size_t i = 0; i < block.size(); i += run) {
      const std::size_t g = base | i;
      const bool za = (g >> a) & 1;
      const bool zb = (g >> b) & 1;
      const Amplitude ph = (za == zb) ? same : diff;
      scale_run(d + 2 * i, run, ph.real(), ph.imag());
    }
  }
  ++stats_.local_gates;
}

StateVector BlockedStateVector::to_statevector() const {
  StateVector out(num_qubits_);
  for (std::size_t blk = 0; blk < blocks_.size(); ++blk) {
    const std::size_t base = blk << local_bits_;
    for (std::size_t i = 0; i < blocks_[blk].size(); ++i) {
      out.set_amplitude(base | i, blocks_[blk][i]);
    }
  }
  return out;
}

}  // namespace qq::sim
