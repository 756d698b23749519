#include "qsim/batched.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "qsim/kernel_detail.hpp"
#include "qsim/simd.hpp"
#include "util/thread_pool.hpp"

namespace qq::sim {

using detail::insert_zero_bit;
using detail::kParallelGrain;

BatchedStateVector::BatchedStateVector(int num_qubits, int batch)
    : num_qubits_(num_qubits), batch_(batch) {
  if (num_qubits < 0 || num_qubits > kMaxQubits) {
    throw std::invalid_argument(
        "BatchedStateVector: qubit count must be in [0, " +
        std::to_string(kMaxQubits) + "], got " + std::to_string(num_qubits));
  }
  if (batch < 1) {
    throw std::invalid_argument("BatchedStateVector: batch must be >= 1");
  }
  size_ = std::size_t{1} << num_qubits;
  data_.assign(2 * static_cast<std::size_t>(batch_) * size_, 0.0);
  for (int b = 0; b < batch_; ++b) data_[2 * b] = 1.0;
  cdup_.assign(2 * static_cast<std::size_t>(batch_), 0.0);
  sdup_.assign(2 * static_cast<std::size_t>(batch_), 0.0);
}

void BatchedStateVector::check_lane(int lane) const {
  if (lane < 0 || lane >= batch_) {
    throw std::out_of_range("BatchedStateVector: lane " +
                            std::to_string(lane) + " out of range for batch " +
                            std::to_string(batch_));
  }
}

void BatchedStateVector::check_scales(
    const std::vector<double>& scales) const {
  if (scales.size() != static_cast<std::size_t>(batch_)) {
    throw std::invalid_argument(
        "BatchedStateVector: per-lane parameter count must equal batch");
  }
}

void BatchedStateVector::reset_to_plus() {
  // Same amplitude expression as StateVector::reset_to_plus, so every lane
  // starts bit-identical to the flat |+>^n.
  fill_real(1.0 / std::sqrt(static_cast<double>(size_)));
}

void BatchedStateVector::reset_to_plus_half() {
  fill_real(1.0 / std::sqrt(static_cast<double>(2 * size_)));
}

void BatchedStateVector::fill_real(double a) {
  const std::size_t lanes = static_cast<std::size_t>(batch_);
  util::parallel_for_chunks(
      0, size_,
      [this, a, lanes](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          double* row = data_.data() + 2 * lanes * i;
          for (std::size_t b = 0; b < lanes; ++b) {
            row[2 * b] = a;
            row[2 * b + 1] = 0.0;
          }
        }
      },
      std::max<std::size_t>(1, kParallelGrain / lanes));
}

void BatchedStateVector::apply_diagonal_phase(
    const std::vector<double>& values, const std::vector<double>& scales) {
  if (values.size() != size_) {
    throw std::invalid_argument(
        "BatchedStateVector::apply_diagonal_phase: table size must equal "
        "2^n");
  }
  check_scales(scales);
  const std::size_t lanes = static_cast<std::size_t>(batch_);
  // Per lane this is exactly StateVector::apply_diagonal_phase's
  // `amp *= std::polar(1.0, -scale * values[i])` — same complex multiply,
  // same operand order — with values[i] fetched once per row for all lanes.
  util::parallel_for_chunks(
      0, size_,
      [this, &values, &scales, lanes](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const double v = values[i];
          double* row = data_.data() + 2 * lanes * i;
          for (std::size_t b = 0; b < lanes; ++b) {
            const std::complex<double> ph = std::polar(1.0, -scales[b] * v);
            std::complex<double> z(row[2 * b], row[2 * b + 1]);
            z *= ph;
            row[2 * b] = z.real();
            row[2 * b + 1] = z.imag();
          }
        }
      },
      std::max<std::size_t>(1, kParallelGrain / lanes));
}

void BatchedStateVector::apply_diagonal_phase(
    const LevelTable& levels, const std::vector<double>& scales) {
  if (levels.size() != size_) {
    throw std::invalid_argument(
        "BatchedStateVector::apply_diagonal_phase: level table size must "
        "equal 2^n");
  }
  check_scales(scales);
  const std::size_t lanes = static_cast<std::size_t>(batch_);
  const std::vector<double>& values = levels.values();
  phase_.resize(2 * lanes * values.size());
  // The dense overload's per-lane std::polar expression, once per level.
  util::parallel_for_chunks(
      0, values.size(),
      [this, &values, &scales, lanes](std::size_t lo, std::size_t hi) {
        for (std::size_t k = lo; k < hi; ++k) {
          double* row = phase_.data() + 2 * lanes * k;
          for (std::size_t b = 0; b < lanes; ++b) {
            const std::complex<double> ph =
                std::polar(1.0, -scales[b] * values[k]);
            row[2 * b] = ph.real();
            row[2 * b + 1] = ph.imag();
          }
        }
      },
      std::max<std::size_t>(1, detail::kPhaseGrain / lanes));
  const std::uint32_t* level = levels.level().data();
  util::parallel_for_chunks(
      0, size_,
      [this, level, lanes](std::size_t lo, std::size_t hi) {
        simd::mul_level_phase_lanes(data_.data(), lanes, phase_.data(), level,
                                    lo, hi);
      },
      std::max<std::size_t>(1, kParallelGrain / lanes));
}

void BatchedStateVector::load_mixer_angles(const std::vector<double>& thetas) {
  check_scales(thetas);
  for (std::size_t b = 0; b < static_cast<std::size_t>(batch_); ++b) {
    // Same per-lane c/s expressions as StateVector::apply_rx_layer.
    const double c = std::cos(thetas[b] * 0.5);
    const double s = std::sin(thetas[b] * 0.5);
    cdup_[2 * b] = c;
    cdup_[2 * b + 1] = c;
    sdup_[2 * b] = s;
    sdup_[2 * b + 1] = s;
  }
}

void BatchedStateVector::apply_rx_layer(const std::vector<double>& thetas) {
  load_mixer_angles(thetas);
  if (num_qubits_ == 0) return;
  const std::size_t lanes = static_cast<std::size_t>(batch_);
  // Same blocking/fusion story as the flat kernel: both passes reorder work
  // only ACROSS amplitudes, never the per-amplitude qubit order, so each
  // lane's dataflow — and therefore its bits — match an unbatched solve.
  double* d = data_.data();
  const double* cd = cdup_.data();
  const double* sd = sdup_.data();

  // Pass 1: the lowest B qubits on row blocks that fit the flat kernel's
  // 64 KiB cache budget (a row is one amplitude's 2*lanes doubles), two
  // levels fused per sweep.
  int B = 1;
  while (B < num_qubits_ &&
         (16 * lanes << (B + 1)) <= (std::size_t{1} << 16)) {
    ++B;
  }
  const std::size_t blk = std::size_t{1} << B;
  const std::size_t nblocks = size_ >> B;
  util::parallel_for_chunks(
      0, nblocks,
      [d, cd, sd, lanes, B, blk](std::size_t lo, std::size_t hi) {
        for (std::size_t blki = lo; blki < hi; ++blki) {
          double* p = d + 2 * lanes * blk * blki;
          int q = 0;
          for (; q + 1 < B; q += 2) {
            const std::size_t stride = std::size_t{1} << q;
            for (std::size_t base = 0; base < blk; base += 4 * stride) {
              for (std::size_t r = base; r < base + stride; ++r) {
                simd::rx_butterfly2_lanes(
                    p + 2 * lanes * r, p + 2 * lanes * (r + stride),
                    p + 2 * lanes * (r + 2 * stride),
                    p + 2 * lanes * (r + 3 * stride), cd, sd, lanes);
              }
            }
          }
          if (q < B) {
            const std::size_t stride = std::size_t{1} << q;
            for (std::size_t base = 0; base < blk; base += 2 * stride) {
              for (std::size_t r = base; r < base + stride; ++r) {
                simd::rx_butterfly_lanes(p + 2 * lanes * r,
                                         p + 2 * lanes * (r + stride), cd, sd,
                                         lanes);
              }
            }
          }
        }
      },
      std::max<std::size_t>(1, (kParallelGrain / lanes) >> B));

  // Pass 2: remaining high qubits, two levels fused per full-array sweep
  // (quartets i0, i0|bit_q, i0|bit_{q+1}, i0|both), odd leftover as a plain
  // pair sweep.
  int q = B;
  for (; q + 1 < num_qubits_; q += 2) {
    const BasisState bit0 = BasisState{1} << q;
    const BasisState bit1 = BasisState{1} << (q + 1);
    const std::size_t quarter = size_ >> 2;
    util::parallel_for_chunks(
        0, quarter,
        [d, cd, sd, lanes, q, bit0, bit1](std::size_t lo, std::size_t hi) {
          for (std::size_t t = lo; t < hi; ++t) {
            const BasisState i0 = detail::insert_two_zero_bits(t, q, q + 1);
            simd::rx_butterfly2_lanes(
                d + 2 * lanes * i0, d + 2 * lanes * (i0 | bit0),
                d + 2 * lanes * (i0 | bit1),
                d + 2 * lanes * (i0 | bit0 | bit1), cd, sd, lanes);
          }
        },
        std::max<std::size_t>(1, kParallelGrain / (4 * lanes)));
  }
  if (q < num_qubits_) {
    const BasisState bit = BasisState{1} << q;
    const std::size_t pairs = size_ >> 1;
    util::parallel_for_chunks(
        0, pairs,
        [d, cd, sd, lanes, q, bit](std::size_t lo, std::size_t hi) {
          for (std::size_t t = lo; t < hi; ++t) {
            const BasisState i0 = insert_zero_bit(t, q);
            simd::rx_butterfly_lanes(d + 2 * lanes * i0,
                                     d + 2 * lanes * (i0 | bit), cd, sd,
                                     lanes);
          }
        },
        std::max<std::size_t>(1, kParallelGrain / lanes));
  }
}

void BatchedStateVector::apply_rx_mirror(const std::vector<double>& thetas) {
  load_mixer_angles(thetas);
  const std::size_t lanes = static_cast<std::size_t>(batch_);
  const std::size_t stride = 2 * lanes;
  double* d = data_.data();
  const double* cd = cdup_.data();
  const double* sd = sdup_.data();
  const std::size_t mirror = size_ - 1;
  if (mirror == 0) {
    std::vector<double> self(d, d + stride);
    simd::rx_butterfly_lanes(d, self.data(), cd, sd, lanes);
    return;
  }
  util::parallel_for_chunks(
      0, size_ / 2,
      [d, cd, sd, lanes, stride, mirror](std::size_t lo, std::size_t hi) {
        for (std::size_t z = lo; z < hi; ++z) {
          simd::rx_butterfly_lanes(d + stride * z, d + stride * (mirror - z),
                                   cd, sd, lanes);
        }
      },
      std::max<std::size_t>(1, kParallelGrain / lanes));
}

std::vector<double> BatchedStateVector::weighted_norms(
    const std::vector<double>& values) const {
  const std::size_t lanes = static_cast<std::size_t>(batch_);
  const std::size_t stride = 2 * lanes;
  const std::size_t total = values.size();
  // Chunked over AMPLITUDE indices with the flat kernel's grain, so the
  // chunk plan — and therefore each lane's partial-sum fold — matches
  // sim::expectation_diagonal(_mirror)(lane_state(b), values) exactly.
  return util::parallel_reduce(
      0, total, std::vector<double>(lanes, 0.0),
      [this, &values, lanes, stride, total](std::size_t lo, std::size_t hi) {
        std::vector<double> partial(lanes, 0.0);
        const std::size_t mid = std::clamp(size_, lo, hi);
        const auto step = static_cast<std::ptrdiff_t>(stride);
        if (lo < mid) {
          simd::sum_norms_weighted_rows(partial.data(),
                                        data_.data() + stride * lo, step,
                                        lanes, values.data() + lo, mid - lo);
        }
        if (mid < hi) {
          simd::sum_norms_weighted_rows(
              partial.data(), data_.data() + stride * (total - 1 - mid), -step,
              lanes, values.data() + mid, hi - mid);
        }
        return partial;
      },
      [lanes](std::vector<double> acc, std::vector<double> partial) {
        for (std::size_t b = 0; b < lanes; ++b) acc[b] += partial[b];
        return acc;
      },
      kParallelGrain);
}

std::vector<double> BatchedStateVector::expectation_diagonal(
    const std::vector<double>& values) const {
  if (values.size() != size_) {
    throw std::invalid_argument(
        "BatchedStateVector::expectation_diagonal: table size mismatch");
  }
  return weighted_norms(values);
}

std::vector<double> BatchedStateVector::expectation_diagonal_mirror(
    const std::vector<double>& values) const {
  if (values.size() != 2 * size_) {
    throw std::invalid_argument(
        "BatchedStateVector::expectation_diagonal_mirror: table size must be "
        "twice the half");
  }
  return weighted_norms(values);
}

Amplitude BatchedStateVector::amplitude(int lane, BasisState s) const {
  check_lane(lane);
  if (s >= size_) {
    throw std::out_of_range("BatchedStateVector::amplitude: bad basis state");
  }
  const double* row = data_.data() + 2 * static_cast<std::size_t>(batch_) * s;
  return Amplitude{row[2 * lane], row[2 * lane + 1]};
}

StateVector BatchedStateVector::lane_state(int lane) const {
  check_lane(lane);
  StateVector out(num_qubits_);
  const std::size_t lanes = static_cast<std::size_t>(batch_);
  for (std::size_t i = 0; i < size_; ++i) {
    const double* row = data_.data() + 2 * lanes * i;
    out.set_amplitude(i, Amplitude{row[2 * lane], row[2 * lane + 1]});
  }
  return out;
}

}  // namespace qq::sim
