#include "qsim/measure.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "qsim/kernel_detail.hpp"
#include "qsim/simd.hpp"
#include "util/thread_pool.hpp"

namespace qq::sim {

using detail::kParallelGrain;
using detail::walk_runs;

std::vector<double> probabilities(const StateVector& sv) {
  const auto& amps = sv.data();
  std::vector<double> probs(amps.size());
  util::parallel_for_chunks(
      0, amps.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) probs[i] = std::norm(amps[i]);
      },
      kParallelGrain);
  return probs;
}

BasisState argmax_probability(const StateVector& sv) {
  struct Best {
    double p;
    BasisState s;
  };
  const auto& amps = sv.data();
  const Best best = util::parallel_reduce(
      0, amps.size(), Best{-1.0, 0},
      [&amps](std::size_t lo, std::size_t hi) {
        Best local{std::norm(amps[lo]), lo};
        for (std::size_t i = lo + 1; i < hi; ++i) {
          const double p = std::norm(amps[i]);
          if (p > local.p) local = Best{p, i};
        }
        return local;
      },
      // Chunks are folded in ascending index order, so preferring the
      // accumulator on ties keeps the smallest index.
      [](Best acc, Best chunk) { return chunk.p > acc.p ? chunk : acc; },
      kParallelGrain);
  return best.s;
}

std::vector<std::pair<BasisState, double>> top_k_states(const StateVector& sv,
                                                        int k) {
  if (k < 1) throw std::invalid_argument("top_k_states: k must be >= 1");
  const auto& amps = sv.data();
  const std::size_t kk = std::min<std::size_t>(static_cast<std::size_t>(k),
                                               amps.size());
  std::vector<BasisState> idx(amps.size());
  std::iota(idx.begin(), idx.end(), BasisState{0});
  std::partial_sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(kk),
                    idx.end(), [&amps](BasisState a, BasisState b) {
                      const double pa = std::norm(amps[a]);
                      const double pb = std::norm(amps[b]);
                      if (pa != pb) return pa > pb;
                      return a < b;
                    });
  std::vector<std::pair<BasisState, double>> out;
  out.reserve(kk);
  for (std::size_t i = 0; i < kk; ++i) {
    out.emplace_back(idx[i], std::norm(amps[idx[i]]));
  }
  return out;
}

std::vector<BasisState> sample_counts(const StateVector& sv, int shots,
                                      util::Rng& rng) {
  std::vector<double> cdf;
  std::vector<BasisState> out;
  sample_counts_into(sv, shots, rng, cdf, out);
  return out;
}

void sample_counts_into(const StateVector& sv, int shots, util::Rng& rng,
                        std::vector<double>& cdf,
                        std::vector<BasisState>& out) {
  if (shots < 0) throw std::invalid_argument("sample_counts: negative shots");
  out.clear();
  if (shots == 0) return;
  const auto& amps = sv.data();
  const std::size_t n = amps.size();

  // Inclusive-prefix CDF of |amp|^2, built in two parallel passes over fixed
  // chunk boundaries: per-chunk probabilities + sums, serial scan of the
  // chunk sums, then per-chunk prefix with the chunk's offset. The plan is
  // pool-independent, so the CDF (and thus the sample stream at a fixed
  // seed) is identical at any thread count.
  cdf.resize(n);
  const util::detail::ChunkPlan plan =
      util::detail::plan_chunks(n, kParallelGrain);
  const std::size_t nchunks = plan.count;
  const std::size_t len = plan.len;
  std::vector<double> sums(nchunks, 0.0);
  util::parallel_for(
      0, nchunks,
      [&](std::size_t c) {
        const std::size_t lo = c * len;
        const std::size_t hi = std::min(n, lo + len);
        double sum = 0.0;
        for (std::size_t i = lo; i < hi; ++i) {
          cdf[i] = std::norm(amps[i]);
          sum += cdf[i];
        }
        sums[c] = sum;
      },
      1);
  double running = 0.0;
  for (std::size_t c = 0; c < nchunks; ++c) {
    const double s = sums[c];
    sums[c] = running;  // exclusive offset for chunk c
    running += s;
  }
  util::parallel_for(
      0, nchunks,
      [&](std::size_t c) {
        const std::size_t lo = c * len;
        const std::size_t hi = std::min(n, lo + len);
        double acc = sums[c];
        for (std::size_t i = lo; i < hi; ++i) {
          acc += cdf[i];
          cdf[i] = acc;
        }
      },
      1);

  const double total = cdf.back();
  if (!(total > 0.0)) {
    throw std::runtime_error("sample_counts: state has zero norm");
  }
  // Last state that can legitimately be drawn: the largest index whose CDF
  // entry strictly exceeds its predecessor. Everything after it is a
  // zero-probability plateau that floating-point clamping must never hit.
  std::size_t last = n - 1;
  while (last > 0 && !(cdf[last] > cdf[last - 1])) --last;

  out.reserve(static_cast<std::size_t>(shots));
  const auto begin = cdf.begin();
  const auto end_it = cdf.begin() + static_cast<std::ptrdiff_t>(last) + 1;
  for (int s = 0; s < shots; ++s) {
    const double r = util::uniform(rng) * total;
    // upper_bound (first entry > r) skips zero-probability plateaus when r
    // lands exactly on a boundary; the clamp covers r accumulating past
    // cdf.back() under floating-point rounding.
    const auto it = std::upper_bound(begin, end_it, r);
    out.push_back(std::min<BasisState>(
        static_cast<BasisState>(it - begin), static_cast<BasisState>(last)));
  }
}

namespace {

/// Σ_z |amp_z|^2 * values[z] over z < values.size(), which is sv.size() for
/// a full state or 2 * sv.size() for a half, whose states z >= sv.size()
/// read slot values.size() - 1 - z.
double weighted_norms(const StateVector& sv,
                      const std::vector<double>& values) {
  const std::size_t stored = sv.size();
  const std::size_t total = values.size();
  const double* d = reinterpret_cast<const double*>(sv.data().data());
  const double* v = values.data();
  return util::parallel_reduce(
      0, total, 0.0,
      [d, v, stored, total](std::size_t lo, std::size_t hi) {
        const std::size_t mid = std::clamp(stored, lo, hi);
        double acc = 0.0;
        if (lo < mid) {
          acc = simd::sum_norms_weighted(acc, d + 2 * lo, v + lo, mid - lo);
        }
        if (mid < hi) {
          simd::sum_norms_weighted_rows(&acc, d + 2 * (total - 1 - mid), -2, 1,
                                        v + mid, hi - mid);
        }
        return acc;
      },
      [](double a, double b) { return a + b; }, kParallelGrain);
}

}  // namespace

double expectation_diagonal(const StateVector& sv,
                            const std::vector<double>& values) {
  if (values.size() != sv.size()) {
    throw std::invalid_argument("expectation_diagonal: table size mismatch");
  }
  return weighted_norms(sv, values);
}

double expectation_diagonal_mirror(const StateVector& half,
                                   const std::vector<double>& values) {
  if (values.size() != 2 * half.size()) {
    throw std::invalid_argument(
        "expectation_diagonal_mirror: table size must be twice the half");
  }
  return weighted_norms(half, values);
}

double expectation_zz(const StateVector& sv, int a, int b) {
  if (a < 0 || a >= sv.num_qubits() || b < 0 || b >= sv.num_qubits()) {
    throw std::out_of_range("expectation_zz: bad qubit");
  }
  if (a == b) {
    // <Z_q Z_q> = <I> — the squared norm.
    return sv.norm_squared();
  }
  const auto& amps = sv.data();
  const BasisState abit = BasisState{1} << a;
  const BasisState bbit = BasisState{1} << b;
  const int lo_q = std::min(a, b);
  const int hi_q = std::max(a, b);
  const std::size_t run = std::size_t{1} << lo_q;
  const double* d = reinterpret_cast<const double*>(amps.data());
  // Quarter enumeration: each t visits all four (bit_a, bit_b) combinations;
  // all four streams are contiguous over aligned runs of 2^min(a,b) values
  // of t, feeding the ordered four-way SIMD reduction.
  return util::parallel_reduce(
      0, amps.size() >> 2, 0.0,
      [d, lo_q, hi_q, abit, bbit, run](std::size_t lo, std::size_t hi) {
        double partial = 0.0;
        walk_runs(
            lo, hi, run,
            [lo_q, hi_q](std::size_t t) {
              return detail::insert_two_zero_bits(t, lo_q, hi_q);
            },
            [d, abit, bbit, &partial](BasisState i00, std::size_t len) {
              partial = simd::sum_norm_quads(
                  partial, d + 2 * i00, d + 2 * (i00 | abit),
                  d + 2 * (i00 | bbit), d + 2 * (i00 | abit | bbit), len);
            });
        return partial;
      },
      [](double a2, double b2) { return a2 + b2; }, kParallelGrain);
}

}  // namespace qq::sim
