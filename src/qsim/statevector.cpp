#include "qsim/statevector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "qsim/kernel_detail.hpp"
#include "qsim/simd.hpp"
#include "util/thread_pool.hpp"

namespace qq::sim {

using detail::insert_two_zero_bits;
using detail::insert_zero_bit;
using detail::kParallelGrain;
using detail::walk_runs;

// The run primitives (complex scaling, negation, RX butterflies, the
// low-qubit 16-double table sweep) live in qsim/simd.hpp and dispatch to
// the widest available backend; the index enumeration here stays unchanged,
// so every kernel feeds the same contiguous runs to whichever backend runs.
using simd::mul_table16_blocks;
using simd::negate_run;
using simd::rx_block_levels;
using simd::rx_butterfly2_runs;
using simd::rx_butterfly_runs;
using simd::scale_runs_pattern;

namespace {

/// Fused-mixer cache geometry: pass 1 applies the lowest kFusedBlockQubits
/// qubits inside contiguous 2^12-amplitude (64 KiB) blocks; pass 2 applies
/// the remaining qubits in groups of kFusedGroupQubits over column tiles of
/// kFusedColumnTile amplitudes, so each tile (2^8 rows x 256 amps = 1 MiB
/// worst case) stays cache-resident across the whole group.
constexpr int kFusedBlockQubits = 12;
constexpr int kFusedGroupQubits = 8;
constexpr std::size_t kFusedColumnTile = 256;
}  // namespace

StateVector::StateVector(int num_qubits) : num_qubits_(num_qubits) {
  if (num_qubits < 0 || num_qubits > kMaxQubits) {
    throw std::invalid_argument("StateVector: qubit count must be in [0, " +
                                std::to_string(kMaxQubits) + "], got " +
                                std::to_string(num_qubits));
  }
  amps_.assign(std::size_t{1} << num_qubits, Amplitude{0.0, 0.0});
  amps_[0] = Amplitude{1.0, 0.0};
}

StateVector StateVector::plus_state(int num_qubits) {
  StateVector sv(num_qubits);
  sv.reset_to_plus();
  return sv;
}

void StateVector::reset_to_plus() {
  fill_real(1.0 / std::sqrt(static_cast<double>(amps_.size())));
}

void StateVector::reset_to_plus_half() {
  fill_real(1.0 / std::sqrt(static_cast<double>(2 * amps_.size())));
}

void StateVector::fill_real(double a) {
  util::parallel_for_chunks(
      0, amps_.size(),
      [this, a](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) amps_[i] = Amplitude{a, 0.0};
      },
      kParallelGrain);
}

void StateVector::check_qubit(int q) const {
  if (q < 0 || q >= num_qubits_) {
    throw std::out_of_range("StateVector: qubit index " + std::to_string(q) +
                            " out of range for " + std::to_string(num_qubits_) +
                            " qubits");
  }
}

double StateVector::norm_squared() const {
  const double* d = reinterpret_cast<const double*>(amps_.data());
  return util::parallel_reduce(
      0, amps_.size(), 0.0,
      [d](std::size_t lo, std::size_t hi) {
        return simd::sum_norms(0.0, d + 2 * lo, hi - lo);
      },
      [](double a, double b) { return a + b; }, kParallelGrain);
}

void StateVector::normalize() {
  const double n2 = norm_squared();
  if (n2 <= 0.0) {
    throw std::runtime_error("StateVector::normalize: zero state");
  }
  const double inv = 1.0 / std::sqrt(n2);
  util::parallel_for_chunks(
      0, amps_.size(),
      [this, inv](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) amps_[i] *= inv;
      },
      kParallelGrain);
}

void StateVector::apply_unitary1(int q, const std::array<Amplitude, 4>& m) {
  check_qubit(q);
  const BasisState bit = BasisState{1} << q;
  const std::size_t pairs = amps_.size() >> 1;
  util::parallel_for_chunks(
      0, pairs,
      [this, q, bit, &m](std::size_t lo, std::size_t hi) {
        for (std::size_t t = lo; t < hi; ++t) {
          const BasisState i0 = insert_zero_bit(t, q);
          const BasisState i1 = i0 | bit;
          const Amplitude a0 = amps_[i0];
          const Amplitude a1 = amps_[i1];
          amps_[i0] = m[0] * a0 + m[1] * a1;
          amps_[i1] = m[2] * a0 + m[3] * a1;
        }
      },
      kParallelGrain);
}

void StateVector::apply_h(int q) {
  const double s = 1.0 / std::sqrt(2.0);
  apply_unitary1(q, {Amplitude{s, 0}, Amplitude{s, 0}, Amplitude{s, 0},
                     Amplitude{-s, 0}});
}

void StateVector::apply_x(int q) {
  check_qubit(q);
  const BasisState bit = BasisState{1} << q;
  const std::size_t pairs = amps_.size() >> 1;
  util::parallel_for_chunks(
      0, pairs,
      [this, q, bit](std::size_t lo, std::size_t hi) {
        for (std::size_t t = lo; t < hi; ++t) {
          const BasisState i0 = insert_zero_bit(t, q);
          std::swap(amps_[i0], amps_[i0 | bit]);
        }
      },
      kParallelGrain);
}

void StateVector::apply_y(int q) {
  apply_unitary1(q, {Amplitude{0, 0}, Amplitude{0, -1}, Amplitude{0, 1},
                     Amplitude{0, 0}});
}

void StateVector::apply_z(int q) {
  check_qubit(q);
  // Half enumeration: only the amplitudes with bit q set are touched, as
  // contiguous runs of 2^q — no branch, half the old sweep.
  const BasisState bit = BasisState{1} << q;
  const std::size_t run = bit;
  const std::size_t half = amps_.size() >> 1;
  double* d = reinterpret_cast<double*>(amps_.data());
  util::parallel_for_chunks(
      0, half,
      [d, q, bit, run](std::size_t lo, std::size_t hi) {
        walk_runs(
            lo, hi, run,
            [q, bit](std::size_t t) { return insert_zero_bit(t, q) | bit; },
            [d](BasisState i0, std::size_t len) {
              negate_run(d + 2 * i0, len);
            });
      },
      kParallelGrain);
}

void StateVector::apply_rx(int q, double theta) {
  const double c = std::cos(theta * 0.5);
  const double s = std::sin(theta * 0.5);
  apply_unitary1(q, {Amplitude{c, 0}, Amplitude{0, -s}, Amplitude{0, -s},
                     Amplitude{c, 0}});
}

void StateVector::apply_rz(int q, double theta) {
  check_qubit(q);
  const Amplitude e0 = std::polar(1.0, -theta * 0.5);
  const Amplitude e1 = std::polar(1.0, theta * 0.5);
  const BasisState bit = BasisState{1} << q;
  double* d = reinterpret_cast<double*>(amps_.data());
  if (bit >= 8 || amps_.size() < 8) {
    // Stride structure: period 2^(q+1) = a contiguous e0 run then an e1 run,
    // each 2^q long. One streaming sweep; the per-run e0/e1 choice is the
    // parity of the run index (selmask = 1), resolved inside the primitive
    // so both phase broadcasts stay live across the whole chunk.
    const std::size_t nruns = amps_.size() >> q;
    util::parallel_for_chunks(
        0, nruns,
        [d, q, bit, e0, e1](std::size_t lo, std::size_t hi) {
          scale_runs_pattern(d + 2 * (lo << q), lo, hi - lo, bit, 1,
                             e0.real(), e0.imag(), e1.real(), e1.imag());
        },
        std::max<std::size_t>(1, kParallelGrain >> q));
    return;
  }
  // Low qubit (runs shorter than a cache line): one sweep with a periodic
  // 8-amplitude phase pattern instead of two passes over every line.
  double tbl[16];
  for (std::size_t j = 0; j < 8; ++j) {
    const Amplitude e = (j & bit) ? e1 : e0;
    tbl[2 * j] = e.real();
    tbl[2 * j + 1] = e.imag();
  }
  util::parallel_for_chunks(
      0, amps_.size() >> 3,
      [d, &tbl](std::size_t lo, std::size_t hi) {
        mul_table16_blocks(d + 16 * lo, hi - lo, tbl);
      },
      kParallelGrain / 8);
}

void StateVector::apply_cx(int control, int target) {
  check_qubit(control);
  check_qubit(target);
  if (control == target) {
    throw std::invalid_argument("apply_cx: control == target");
  }
  // Quarter enumeration over the (control=1, target=0) representatives; each
  // run swaps two contiguous blocks.
  const BasisState cbit = BasisState{1} << control;
  const BasisState tbit = BasisState{1} << target;
  const int lo_q = std::min(control, target);
  const int hi_q = std::max(control, target);
  const std::size_t run = BasisState{1} << lo_q;
  const std::size_t quarter = amps_.size() >> 2;
  util::parallel_for_chunks(
      0, quarter,
      [this, lo_q, hi_q, cbit, tbit, run](std::size_t lo, std::size_t hi) {
        walk_runs(
            lo, hi, run,
            [lo_q, hi_q, cbit](std::size_t t) {
              return insert_two_zero_bits(t, lo_q, hi_q) | cbit;
            },
            [this, tbit](BasisState i0, std::size_t len) {
              std::swap_ranges(amps_.begin() + static_cast<std::ptrdiff_t>(i0),
                               amps_.begin() +
                                   static_cast<std::ptrdiff_t>(i0 + len),
                               amps_.begin() +
                                   static_cast<std::ptrdiff_t>(i0 | tbit));
            });
      },
      kParallelGrain);
}

void StateVector::apply_rzz(int a, int b, double theta) {
  check_qubit(a);
  check_qubit(b);
  if (a == b) throw std::invalid_argument("apply_rzz: identical qubits");
  // exp(-i θ/2 Z_a Z_b): phase e^{-iθ/2} when bits agree, e^{+iθ/2} when
  // they differ. Every amplitude is touched, so the win is turning the old
  // per-element branch into constant-phase streaming runs.
  const Amplitude same = std::polar(1.0, -theta * 0.5);
  const Amplitude diff = std::polar(1.0, theta * 0.5);
  const BasisState abit = BasisState{1} << a;
  const BasisState bbit = BasisState{1} << b;
  const int lo_q = std::min(a, b);
  const std::size_t run = BasisState{1} << lo_q;
  double* d = reinterpret_cast<double*>(amps_.data());
  if (run >= 8 || amps_.size() < 8) {
    // The phase is constant over aligned runs of 2^min(a,b) amplitudes;
    // same/diff tracks the parity of the two qubit bits of the run index.
    const std::size_t nruns = amps_.size() >> lo_q;
    const std::size_t selmask = static_cast<std::size_t>((abit | bbit) >> lo_q);
    util::parallel_for_chunks(
        0, nruns,
        [d, lo_q, run, selmask, same, diff](std::size_t lo, std::size_t hi) {
          scale_runs_pattern(d + 2 * (lo << lo_q), lo, hi - lo, run, selmask,
                             same.real(), same.imag(), diff.real(),
                             diff.imag());
        },
        std::max<std::size_t>(1, kParallelGrain >> lo_q));
    return;
  }
  // min(a, b) < 3: the run structure is finer than a cache line. Bake the
  // phase pattern of 8 consecutive amplitudes into tables (one per value of
  // the high bit when it lies above the pattern, else a single periodic
  // table) and stream branch-free.
  const BasisState hibit = BasisState{1} << std::max(a, b);
  double tbl[2][16];
  for (int h = 0; h < 2; ++h) {
    for (std::size_t j = 0; j < 8; ++j) {
      BasisState idx = j;
      if (hibit >= 8 && h) idx |= hibit;  // high bit constant over the run
      const bool eq = ((idx & abit) != 0) == ((idx & bbit) != 0);
      const Amplitude ph = eq ? same : diff;
      tbl[h][2 * j] = ph.real();
      tbl[h][2 * j + 1] = ph.imag();
    }
  }
  // In 8-amplitude blocks, the table index flips with period hibit/8 blocks
  // (never, when the high bit sits inside the pattern), so the sweep walks
  // maximal equal-table runs and streams each through one primitive call.
  const std::size_t hb =
      hibit >= 8 ? static_cast<std::size_t>(hibit >> 3) : 0;
  util::parallel_for_chunks(
      0, amps_.size() >> 3,
      [d, &tbl, hb](std::size_t lo, std::size_t hi) {
        if (hb == 0) {
          mul_table16_blocks(d + 16 * lo, hi - lo, tbl[0]);
          return;
        }
        std::size_t blk = lo;
        while (blk < hi) {
          const std::size_t in_run = blk & (hb - 1);
          const std::size_t len = std::min(hb - in_run, hi - blk);
          mul_table16_blocks(d + 16 * blk, len, tbl[(blk & hb) ? 1 : 0]);
          blk += len;
        }
      },
      kParallelGrain / 8);
}

void StateVector::apply_rx_layer(double theta) {
  if (num_qubits_ == 0) return;
  const double c = std::cos(theta * 0.5);
  const double s = std::sin(theta * 0.5);
  double* d = reinterpret_cast<double*>(amps_.data());

  // Pass 1: the lowest B qubits, one cache-resident block at a time. Each
  // block of 2^B contiguous amplitudes runs all B butterfly levels before
  // the next block is loaded — one memory sweep applies B gates.
  const int B = std::min(num_qubits_, kFusedBlockQubits);
  const std::size_t blk = std::size_t{1} << B;
  const std::size_t nblocks = amps_.size() >> B;
  util::parallel_for_chunks(
      0, nblocks,
      [d, B, blk, c, s](std::size_t lo, std::size_t hi) {
        for (std::size_t blki = lo; blki < hi; ++blki) {
          // All B levels in radix-4 sweeps, backend resolved once per block.
          rx_block_levels(d + 2 * blk * blki, B, c, s);
        }
      },
      std::max<std::size_t>(1, kParallelGrain >> B));

  // Pass 2: the remaining high qubits, in groups of at most G. Viewing the
  // vector as [2^(n-B) rows x 2^B cols], a group's butterflies act across
  // rows; column tiles of W amplitudes keep the 2^g x W working set
  // cache-resident for the whole group, so one sweep applies g gates.
  const int high = num_qubits_ - B;
  for (int j0 = 0; j0 < high; j0 += kFusedGroupQubits) {
    const int g = std::min(kFusedGroupQubits, high - j0);
    const std::size_t rows = std::size_t{1} << g;
    const std::size_t others = (std::size_t{1} << high) >> g;
    const std::size_t W = std::min(blk, kFusedColumnTile);
    const std::size_t ntiles = blk / W;
    util::parallel_for_chunks(
        0, others * ntiles,
        [d, blk, j0, g, rows, ntiles, W, c, s](std::size_t lo,
                                               std::size_t hi) {
          for (std::size_t u = lo; u < hi; ++u) {
            const std::size_t o = u / ntiles;
            const std::size_t col = (u % ntiles) * W;
            // Row index with zeros spread in at the group's bit positions.
            const std::size_t base_h =
                ((o >> j0) << (j0 + g)) |
                (o & ((std::size_t{1} << j0) - 1));
            // Radix-4 over the group: two levels per tile sweep. The row
            // quartet (r, r+s, r+2s, r+3s) covers exactly the level-k pairs
            // (r, r+s), (r+2s, r+3s) and the level-(k+1) pairs of their
            // results — same per-element order as two separate level loops.
            int k = 0;
            for (; k + 1 < g; k += 2) {
              const std::size_t stride = std::size_t{1} << k;
              for (std::size_t r0 = 0; r0 < rows; r0 += 4 * stride) {
                for (std::size_t r = r0; r < r0 + stride; ++r) {
                  const std::size_t h0 = base_h | (r << j0);
                  const std::size_t h1 = base_h | ((r + stride) << j0);
                  const std::size_t h2 = base_h | ((r + 2 * stride) << j0);
                  const std::size_t h3 = base_h | ((r + 3 * stride) << j0);
                  rx_butterfly2_runs(d + 2 * (h0 * blk + col),
                                     d + 2 * (h1 * blk + col),
                                     d + 2 * (h2 * blk + col),
                                     d + 2 * (h3 * blk + col), W, c, s);
                }
              }
            }
            if (k < g) {
              const std::size_t stride = std::size_t{1} << k;
              for (std::size_t r0 = 0; r0 < rows; r0 += 2 * stride) {
                for (std::size_t r = r0; r < r0 + stride; ++r) {
                  const std::size_t h0 = base_h | (r << j0);
                  const std::size_t h1 = base_h | ((r + stride) << j0);
                  rx_butterfly_runs(d + 2 * (h0 * blk + col),
                                    d + 2 * (h1 * blk + col), W, c, s);
                }
              }
            }
          }
        },
        1);
  }
}

void StateVector::apply_diagonal_phase(const std::vector<double>& values,
                                       double scale) {
  if (values.size() != amps_.size()) {
    throw std::invalid_argument(
        "apply_diagonal_phase: table size must equal 2^n");
  }
  util::parallel_for_chunks(
      0, amps_.size(),
      [this, &values, scale](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          amps_[i] *= std::polar(1.0, -scale * values[i]);
        }
      },
      kParallelGrain);
}

void StateVector::apply_diagonal_phase(const LevelTable& levels,
                                       double scale) {
  if (levels.size() != amps_.size()) {
    throw std::invalid_argument(
        "apply_diagonal_phase: level table size must equal 2^n");
  }
  const std::vector<double>& values = levels.values();
  // Same std::polar expression as the dense overload, evaluated once per
  // distinct value instead of once per amplitude.
  phase_.resize(values.size());
  util::parallel_for_chunks(
      0, values.size(),
      [this, &values, scale](std::size_t lo, std::size_t hi) {
        for (std::size_t k = lo; k < hi; ++k) {
          phase_[k] = std::polar(1.0, -scale * values[k]);
        }
      },
      detail::kPhaseGrain);
  // The batched sweep's row multiply with one lane: the dense overload's
  // complex multiply, operand for operand.
  const std::uint32_t* level = levels.level().data();
  double* d = reinterpret_cast<double*>(amps_.data());
  const double* ph = reinterpret_cast<const double*>(phase_.data());
  util::parallel_for_chunks(
      0, amps_.size(),
      [d, ph, level](std::size_t lo, std::size_t hi) {
        simd::mul_level_phase_lanes(d, 1, ph, level, lo, hi);
      },
      kParallelGrain);
}

void StateVector::apply_rx_mirror(double theta) {
  // Same c/s expressions as apply_rx_layer, in the one-lane layout of
  // simd::rx_butterfly_lanes.
  const double c = std::cos(theta * 0.5);
  const double s = std::sin(theta * 0.5);
  const double cdup[2] = {c, c};
  const double sdup[2] = {s, s};
  double* d = reinterpret_cast<double*>(amps_.data());
  const std::size_t mirror = amps_.size() - 1;
  if (mirror == 0) {
    double self[2] = {d[0], d[1]};
    simd::rx_butterfly_lanes(d, self, cdup, sdup, 1);
    return;
  }
  util::parallel_for_chunks(
      0, amps_.size() / 2,
      [d, mirror, &cdup, &sdup](std::size_t lo, std::size_t hi) {
        for (std::size_t z = lo; z < hi; ++z) {
          simd::rx_butterfly_lanes(d + 2 * z, d + 2 * (mirror - z), cdup, sdup,
                                   1);
        }
      },
      kParallelGrain);
}

void StateVector::expand_half(StateVector& full) const {
  if (full.num_qubits_ != num_qubits_ + 1) full = StateVector(num_qubits_ + 1);
  const std::size_t half = amps_.size();
  const std::size_t top = 2 * half - 1;
  util::parallel_for_chunks(
      0, 2 * half,
      [this, &full, half, top](std::size_t lo, std::size_t hi) {
        for (std::size_t z = lo; z < hi; ++z) {
          full.amps_[z] = amps_[z < half ? z : top - z];
        }
      },
      kParallelGrain);
}

}  // namespace qq::sim
