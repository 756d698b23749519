#pragma once
// Explicit SIMD backends for the state-vector kernels — the ONLY file in the
// repo allowed to spell x86 intrinsics (tools/qq_lint.cpp enforces it with
// the raw-intrinsics rule). Everything else calls the dispatched primitives
// below, which select among three implementations:
//
//   scalar  — portable reference loops, byte-for-byte the arithmetic the
//             pre-SIMD kernels performed. Always compiled; the only backend
//             when QQ_SIMD is OFF or the target is not x86-64.
//   avx2    — 256-bit lanes (4 doubles = 2 complex amplitudes per vector).
//   avx512  — 512-bit lanes for the elementwise primitives; the ordered
//             reductions deliberately reuse the AVX2 bodies (the horizontal
//             step dominates and 512-bit widening buys nothing there).
//
// Dispatch policy: compile-time, the QQ_SIMD CMake option gates whether the
// vector backends exist at all (they are built with per-function target
// attributes, so the surrounding TU needs no -mavx flags and the binary
// stays runnable on any x86-64). Run-time, a one-shot CPUID probe
// (max_supported_isa) picks the widest supported backend the first time any
// kernel runs; the QQ_SIMD_ISA environment variable ("scalar", "avx2",
// "avx512") and the set_isa() test hook can force a narrower one. Tests use
// set_isa() to prove every backend produces bit-for-bit identical states.
//
// Bit-for-bit contract: every primitive performs, per element, exactly the
// operation sequence of its scalar body — same multiplies, same add/sub
// order, no FMA contraction. The header pins -ffp-contract=off for its own
// definitions (see the pragma below): GCC defaults to -ffp-contract=fast,
// which would fuse the mul/add pairs into FMAs wherever the target allows
// it — notably the avx512 bodies, since AVX-512F implies 512-bit FMA — in
// any including TU that lacks the flag, and COMDAT folding of inline
// functions would then leak that TU's fused copy into the whole binary.
// Sign flips ride on exact IEEE identities:
// x + (-y) == x - y and (-s)*y == -(s*y) for all finite inputs. The ordered
// reductions keep the horizontal accumulation sequential in element order
// (lanes are folded back one at a time), so chunk partials match the scalar
// fold exactly — vectorization only covers the per-element products.
//
// Layout conventions: `p` points at interleaved [re, im] doubles; `len`
// counts complex amplitudes unless a name says otherwise. The *_lanes
// primitives serve BatchedStateVector's amplitude-major layout (B complex
// lanes per amplitude row).

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

#if defined(QQ_SIMD_ENABLED) && (defined(__x86_64__) || defined(__amd64__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define QQ_SIMD_X86 1
#include <immintrin.h>
#else
#define QQ_SIMD_X86 0
#endif

// Contraction must be off for every definition in this header regardless of
// the including TU's flags (see the bit-for-bit contract above). Clang needs
// no pragma: its default (-ffp-contract=on) never fuses across the separate
// mul/add statements the bodies use.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")
// GCC 12's _mm512_* intrinsics pass _mm512_undefined_pd() as the masked
// builtins' pass-through operand; combined with the optimize pragma above
// the uninitialized-use analysis flags that deliberate garbage (PR105593).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace qq::sim::simd {

enum class Isa : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Widest backend this CPU (and this build) can execute. One-shot CPUID
/// probe; compile-time capped at kScalar when QQ_SIMD is OFF.
Isa max_supported_isa() noexcept;

/// Backend selected at process start: min(max_supported_isa(), QQ_SIMD_ISA
/// environment override). Defined in simd.cpp.
Isa initial_isa() noexcept;

const char* isa_name(Isa isa) noexcept;

namespace detail {
inline std::atomic<int>& isa_slot() noexcept {
  static std::atomic<int> slot{static_cast<int>(initial_isa())};
  return slot;
}
}  // namespace detail

/// The backend every dispatched primitive currently routes to.
inline Isa active_isa() noexcept {
  return static_cast<Isa>(detail::isa_slot().load(std::memory_order_relaxed));
}

/// Force a backend (clamped to max_supported_isa()); returns what was
/// actually installed. Test/bench hook — the parity suites flip this to
/// compare backends inside one process. Not intended for concurrent use
/// with running kernels.
inline Isa set_isa(Isa isa) noexcept {
  if (static_cast<int>(isa) > static_cast<int>(max_supported_isa())) {
    isa = max_supported_isa();
  }
  detail::isa_slot().store(static_cast<int>(isa), std::memory_order_relaxed);
  return isa;
}

// ---- scalar reference bodies ---------------------------------------------
// These are the exact loops the pre-SIMD kernels ran; the vector backends
// replicate their per-element arithmetic lane by lane.

namespace scalar {

/// amps[i] *= (pr + i*pi) for `len` contiguous amplitudes.
inline void scale_run(double* p, std::size_t len, double pr,
                      double pi) noexcept {
  for (std::size_t j = 0; j < 2 * len; j += 2) {
    const double re = p[j];
    const double im = p[j + 1];
    p[j] = pr * re - pi * im;
    p[j + 1] = pr * im + pi * re;
  }
}

inline void negate_run(double* p, std::size_t len) noexcept {
  for (std::size_t j = 0; j < 2 * len; ++j) p[j] = -p[j];
}

/// Scale `nruns` adjacent aligned runs of `run_amps` amplitudes, where run
/// k (global run index r0+k) takes phase (pr0,pi0) when
/// popcount((r0+k) & selmask) is even and (pr1,pi1) when odd — the
/// aligned-run phase structure of a full rz sweep (selmask = 1) or rzz
/// sweep (selmask = (abit|bbit) >> min(a,b)). One streaming pass with the
/// phase choice resolved per run keeps both broadcast constants live across
/// the whole chunk instead of paying a dispatch + broadcast per run.
inline void scale_runs_pattern(double* p, std::size_t r0, std::size_t nruns,
                               std::size_t run_amps, std::size_t selmask,
                               double pr0, double pi0, double pr1,
                               double pi1) noexcept {
  for (std::size_t k = 0; k < nruns; ++k) {
    const bool odd = (std::popcount((r0 + k) & selmask) & 1) != 0;
    scale_run(p + 2 * run_amps * k, run_amps, odd ? pr1 : pr0,
              odd ? pi1 : pi0);
  }
}

/// RX butterfly between two contiguous runs of `len` amplitudes:
///   a0' = c*a0 - i s*a1,  a1' = -i s*a0 + c*a1.
inline void rx_butterfly_runs(double* p0, double* p1, std::size_t len,
                              double c, double s) noexcept {
  for (std::size_t j = 0; j < 2 * len; j += 2) {
    const double a0r = p0[j];
    const double a0i = p0[j + 1];
    const double a1r = p1[j];
    const double a1i = p1[j + 1];
    p0[j] = c * a0r + s * a1i;
    p0[j + 1] = c * a0i - s * a1r;
    p1[j] = c * a1r + s * a0i;
    p1[j + 1] = c * a1i - s * a0r;
  }
}

/// Qubit-0 butterfly over interleaved (even, odd) amplitude pairs:
/// `n_amps` (even) amplitudes = n_amps/2 adjacent pairs.
inline void rx_interleaved_pairs(double* p, std::size_t n_amps, double c,
                                 double s) noexcept {
  for (std::size_t j = 0; j < 2 * n_amps; j += 4) {
    const double a0r = p[j];
    const double a0i = p[j + 1];
    const double a1r = p[j + 2];
    const double a1i = p[j + 3];
    p[j] = c * a0r + s * a1i;
    p[j + 1] = c * a0i - s * a1r;
    p[j + 2] = c * a1r + s * a0i;
    p[j + 3] = c * a1i - s * a0r;
  }
}

/// Fused butterfly levels 0 and 1 over `n_amps` (a multiple of 4)
/// contiguous amplitudes. Each quartet (a0..a3) gets the qubit-0 pairs
/// (a0,a1),(a2,a3) and then the qubit-1 pairs (b0,b2),(b1,b3) while it is
/// register-resident — one memory sweep instead of two. The per-amplitude
/// arithmetic is exactly the two-pass sequence (level 0 fully applied, then
/// level 1 on its results, identical operands), so the output is
/// bit-identical to rx_interleaved_pairs followed by the stride-2
/// rx_butterfly_runs sweep.
inline void rx_quad01(double* p, std::size_t n_amps, double c,
                      double s) noexcept {
  for (std::size_t j = 0; j < 2 * n_amps; j += 8) {
    const double a0r = p[j];
    const double a0i = p[j + 1];
    const double a1r = p[j + 2];
    const double a1i = p[j + 3];
    const double a2r = p[j + 4];
    const double a2i = p[j + 5];
    const double a3r = p[j + 6];
    const double a3i = p[j + 7];
    const double b0r = c * a0r + s * a1i;
    const double b0i = c * a0i - s * a1r;
    const double b1r = c * a1r + s * a0i;
    const double b1i = c * a1i - s * a0r;
    const double b2r = c * a2r + s * a3i;
    const double b2i = c * a2i - s * a3r;
    const double b3r = c * a3r + s * a2i;
    const double b3i = c * a3i - s * a2r;
    p[j] = c * b0r + s * b2i;
    p[j + 1] = c * b0i - s * b2r;
    p[j + 2] = c * b1r + s * b3i;
    p[j + 3] = c * b1i - s * b3r;
    p[j + 4] = c * b2r + s * b0i;
    p[j + 5] = c * b2i - s * b0r;
    p[j + 6] = c * b3r + s * b1i;
    p[j + 7] = c * b3i - s * b1r;
  }
}

/// Two fused butterfly levels across four runs of `len` amplitudes: level q
/// on (p0,p1) and (p2,p3), then level q+1 on the results (b0,b2) and
/// (b1,b3). Same bit-identity argument as rx_quad01: identical per-element
/// operations in the same per-element order as the two separate sweeps.
inline void rx_butterfly2_runs(double* p0, double* p1, double* p2, double* p3,
                               std::size_t len, double c, double s) noexcept {
  for (std::size_t j = 0; j < 2 * len; j += 2) {
    const double a0r = p0[j];
    const double a0i = p0[j + 1];
    const double a1r = p1[j];
    const double a1i = p1[j + 1];
    const double a2r = p2[j];
    const double a2i = p2[j + 1];
    const double a3r = p3[j];
    const double a3i = p3[j + 1];
    const double b0r = c * a0r + s * a1i;
    const double b0i = c * a0i - s * a1r;
    const double b1r = c * a1r + s * a0i;
    const double b1i = c * a1i - s * a0r;
    const double b2r = c * a2r + s * a3i;
    const double b2i = c * a2i - s * a3r;
    const double b3r = c * a3r + s * a2i;
    const double b3i = c * a3i - s * a2r;
    p0[j] = c * b0r + s * b2i;
    p0[j + 1] = c * b0i - s * b2r;
    p1[j] = c * b1r + s * b3i;
    p1[j + 1] = c * b1i - s * b3r;
    p2[j] = c * b2r + s * b0i;
    p2[j + 1] = c * b2i - s * b0r;
    p3[j] = c * b3r + s * b1i;
    p3[j + 1] = c * b3i - s * b1r;
  }
}

/// All `levels` butterfly levels over one contiguous block of 2^levels
/// amplitudes, radix-4: levels are consumed in pairs (0,1), (2,3), ... so a
/// 12-level block takes 6 memory sweeps instead of 12; an odd final level
/// falls back to the single-level sweep. Level order and per-element
/// arithmetic match the one-level-at-a-time loop exactly, so the block is
/// bit-identical to B successive single-level passes.
inline void rx_block_levels(double* p, int levels, double c,
                            double s) noexcept {
  if (levels <= 0) return;
  const std::size_t blk = std::size_t{1} << levels;
  if (levels == 1) {
    rx_interleaved_pairs(p, blk, c, s);
    return;
  }
  rx_quad01(p, blk, c, s);
  int q = 2;
  for (; q + 1 < levels; q += 2) {
    const std::size_t stride = std::size_t{1} << q;
    for (std::size_t base = 0; base < blk; base += 4 * stride) {
      rx_butterfly2_runs(p + 2 * base, p + 2 * (base + stride),
                         p + 2 * (base + 2 * stride),
                         p + 2 * (base + 3 * stride), stride, c, s);
    }
  }
  if (q < levels) {
    const std::size_t stride = std::size_t{1} << q;
    for (std::size_t base = 0; base < blk; base += 2 * stride) {
      rx_butterfly_runs(p + 2 * base, p + 2 * (base + stride), stride, c, s);
    }
  }
}

/// Multiply `nblocks` blocks of 8 amplitudes by the periodic 16-double
/// phase table [e0r e0i e1r e1i ...] (the low-qubit rz/rzz pattern).
inline void mul_table16_blocks(double* p, std::size_t nblocks,
                               const double* tbl) noexcept {
  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    double* q = p + 16 * blk;
    for (std::size_t j = 0; j < 16; j += 2) {
      const double re = q[j];
      const double im = q[j + 1];
      q[j] = tbl[j] * re - tbl[j + 1] * im;
      q[j + 1] = tbl[j] * im + tbl[j + 1] * re;
    }
  }
}

/// acc += |p[i]|^2, element order preserved.
inline double sum_norms(double acc, const double* p,
                        std::size_t n_amps) noexcept {
  for (std::size_t i = 0; i < n_amps; ++i) {
    acc += p[2 * i] * p[2 * i] + p[2 * i + 1] * p[2 * i + 1];
  }
  return acc;
}

/// acc += |p[i]|^2 * w[i], element order preserved.
inline double sum_norms_weighted(double acc, const double* p, const double* w,
                                 std::size_t n_amps) noexcept {
  for (std::size_t i = 0; i < n_amps; ++i) {
    acc += (p[2 * i] * p[2 * i] + p[2 * i + 1] * p[2 * i + 1]) * w[i];
  }
  return acc;
}

/// acc += |p00|^2 - |p01|^2 - |p10|^2 + |p11|^2 (the <ZZ> quarter body).
inline double sum_norm_quads(double acc, const double* p00, const double* p01,
                             const double* p10, const double* p11,
                             std::size_t n_amps) noexcept {
  for (std::size_t i = 0; i < n_amps; ++i) {
    const double n00 = p00[2 * i] * p00[2 * i] + p00[2 * i + 1] * p00[2 * i + 1];
    const double n01 = p01[2 * i] * p01[2 * i] + p01[2 * i + 1] * p01[2 * i + 1];
    const double n10 = p10[2 * i] * p10[2 * i] + p10[2 * i + 1] * p10[2 * i + 1];
    const double n11 = p11[2 * i] * p11[2 * i] + p11[2 * i + 1] * p11[2 * i + 1];
    acc += ((n00 - n01) - n10) + n11;
  }
  return acc;
}

/// Per-lane RX butterfly between two amplitude rows of `lanes` complex
/// lanes. cdup/sdup hold each lane's cos/sin duplicated per double:
/// cdup[2b] == cdup[2b+1] == cos for lane b (the layout the vector
/// backends consume directly).
inline void rx_butterfly_lanes(double* p0, double* p1, const double* cdup,
                               const double* sdup,
                               std::size_t lanes) noexcept {
  for (std::size_t b = 0; b < lanes; ++b) {
    const double c = cdup[2 * b];
    const double s = sdup[2 * b];
    const double a0r = p0[2 * b];
    const double a0i = p0[2 * b + 1];
    const double a1r = p1[2 * b];
    const double a1i = p1[2 * b + 1];
    p0[2 * b] = c * a0r + s * a1i;
    p0[2 * b + 1] = c * a0i - s * a1r;
    p1[2 * b] = c * a1r + s * a0i;
    p1[2 * b + 1] = c * a1i - s * a0r;
  }
}

/// Two fused butterfly levels across four amplitude rows of `lanes` complex
/// lanes each (the batched twin of rx_butterfly2_runs): level q on (p0,p1)
/// and (p2,p3), then level q+1 on the results (b0,b2) and (b1,b3), with
/// each lane's own c/s from the duplicated cdup/sdup layout. Per-lane
/// arithmetic and order are exactly two rx_butterfly_lanes passes.
inline void rx_butterfly2_lanes(double* p0, double* p1, double* p2,
                                double* p3, const double* cdup,
                                const double* sdup,
                                std::size_t lanes) noexcept {
  for (std::size_t b = 0; b < lanes; ++b) {
    const double c = cdup[2 * b];
    const double s = sdup[2 * b];
    const double a0r = p0[2 * b];
    const double a0i = p0[2 * b + 1];
    const double a1r = p1[2 * b];
    const double a1i = p1[2 * b + 1];
    const double a2r = p2[2 * b];
    const double a2i = p2[2 * b + 1];
    const double a3r = p3[2 * b];
    const double a3i = p3[2 * b + 1];
    const double b0r = c * a0r + s * a1i;
    const double b0i = c * a0i - s * a1r;
    const double b1r = c * a1r + s * a0i;
    const double b1i = c * a1i - s * a0r;
    const double b2r = c * a2r + s * a3i;
    const double b2i = c * a2i - s * a3r;
    const double b3r = c * a3r + s * a2i;
    const double b3i = c * a3i - s * a2r;
    p0[2 * b] = c * b0r + s * b2i;
    p0[2 * b + 1] = c * b0i - s * b2r;
    p1[2 * b] = c * b1r + s * b3i;
    p1[2 * b + 1] = c * b1i - s * b3r;
    p2[2 * b] = c * b2r + s * b0i;
    p2[2 * b + 1] = c * b2i - s * b0r;
    p3[2 * b] = c * b3r + s * b1i;
    p3[2 * b + 1] = c * b3i - s * b1r;
  }
}

/// acc[b] += |row_i lane b|^2 * values[i] for i in [0, count), where row i
/// of `lanes` complex lanes starts at rows + step*i doubles. step is
/// 2*lanes for consecutive rows, or -2*lanes to read them backwards (the
/// mirrored half of a flip-symmetric state). Per-lane accumulation is
/// sequential in i — each lane's result is bit-identical to an unbatched
/// sweep, and to sum_norms_weighted on the same amplitudes.
inline void sum_norms_weighted_rows(double* acc, const double* rows,
                                    std::ptrdiff_t step, std::size_t lanes,
                                    const double* values,
                                    std::size_t count) noexcept {
  for (std::size_t b = 0; b < lanes; ++b) {
    double a = acc[b];
    const double* q = rows + 2 * b;
    for (std::size_t i = 0; i < count; ++i, q += step) {
      a += (q[0] * q[0] + q[1] * q[1]) * values[i];
    }
    acc[b] = a;
  }
}

/// Row i of `data` (at data + 2*lanes*i) times phase row level[i] (at
/// phase + 2*lanes*level[i]), lane by lane, for i in [lo, hi): the cost
/// layer from a level table, batched or (lanes == 1) flat. Per lane this is
/// std::complex<double>'s finite-operand multiply, (a*c - b*d) + i(a*d + b*c).
inline void mul_level_phase_lanes(double* data, std::size_t lanes,
                                  const double* phase,
                                  const std::uint32_t* level, std::size_t lo,
                                  std::size_t hi) noexcept {
  const std::size_t nd = 2 * lanes;
  for (std::size_t i = lo; i < hi; ++i) {
    double* row = data + nd * i;
    const double* ph = phase + nd * level[i];
    for (std::size_t j = 0; j < nd; j += 2) {
      const double re = row[j];
      const double im = row[j + 1];
      row[j] = re * ph[j] - im * ph[j + 1];
      row[j + 1] = re * ph[j + 1] + im * ph[j];
    }
  }
}

}  // namespace scalar

#if QQ_SIMD_X86

#define QQ_SIMD_TARGET_AVX2 __attribute__((target("avx2")))
#define QQ_SIMD_TARGET_AVX512 __attribute__((target("avx512f,avx512dq")))

// ---- AVX2 backend --------------------------------------------------------
// 4 doubles (2 complex amplitudes) per __m256d. Sign-flip masks implement
// the scalar +/- patterns exactly: xor with -0.0 negates, and
// x + (-y) == x - y bitwise for every finite IEEE double.

namespace avx2 {

QQ_SIMD_TARGET_AVX2 inline __m256d swap_pairs(__m256d v) noexcept {
  return _mm256_permute_pd(v, 0b0101);  // [im0 re0 im1 re1]
}

QQ_SIMD_TARGET_AVX2 inline __m256d flip_even(void) noexcept {
  return _mm256_set_pd(0.0, -0.0, 0.0, -0.0);  // negate re lanes
}

QQ_SIMD_TARGET_AVX2 inline __m256d flip_odd(void) noexcept {
  return _mm256_set_pd(-0.0, 0.0, -0.0, 0.0);  // negate im lanes
}

QQ_SIMD_TARGET_AVX2 inline void scale_run(double* p, std::size_t len,
                                          double pr, double pi) noexcept {
  const __m256d prv = _mm256_set1_pd(pr);
  const __m256d piv = _mm256_set1_pd(pi);
  const __m256d meven = flip_even();
  std::size_t j = 0;
  const std::size_t nd = 2 * len;
  for (; j + 4 <= nd; j += 4) {
    const __m256d v = _mm256_loadu_pd(p + j);
    const __m256d a = _mm256_mul_pd(v, prv);
    const __m256d b = _mm256_mul_pd(swap_pairs(v), piv);
    // re: pr*re + (-(pi*im)) == pr*re - pi*im ; im: pr*im + pi*re.
    _mm256_storeu_pd(p + j, _mm256_add_pd(a, _mm256_xor_pd(b, meven)));
  }
  if (j < nd) scalar::scale_run(p + j, (nd - j) / 2, pr, pi);
}

QQ_SIMD_TARGET_AVX2 inline void negate_run(double* p,
                                           std::size_t len) noexcept {
  const __m256d sign = _mm256_set1_pd(-0.0);
  std::size_t j = 0;
  const std::size_t nd = 2 * len;
  for (; j + 4 <= nd; j += 4) {
    _mm256_storeu_pd(p + j, _mm256_xor_pd(_mm256_loadu_pd(p + j), sign));
  }
  for (; j < nd; ++j) p[j] = -p[j];
}

QQ_SIMD_TARGET_AVX2 inline void scale_runs_pattern(
    double* p, std::size_t r0, std::size_t nruns, std::size_t run_amps,
    std::size_t selmask, double pr0, double pi0, double pr1,
    double pi1) noexcept {
  const __m256d pr0v = _mm256_set1_pd(pr0);
  const __m256d pi0v = _mm256_set1_pd(pi0);
  const __m256d pr1v = _mm256_set1_pd(pr1);
  const __m256d pi1v = _mm256_set1_pd(pi1);
  const __m256d meven = flip_even();
  const std::size_t nd = 2 * run_amps;
  for (std::size_t k = 0; k < nruns; ++k) {
    const bool odd = (std::popcount((r0 + k) & selmask) & 1) != 0;
    const __m256d prv = odd ? pr1v : pr0v;
    const __m256d piv = odd ? pi1v : pi0v;
    double* q = p + nd * k;
    std::size_t j = 0;
    for (; j + 4 <= nd; j += 4) {
      const __m256d v = _mm256_loadu_pd(q + j);
      const __m256d a = _mm256_mul_pd(v, prv);
      const __m256d b = _mm256_mul_pd(swap_pairs(v), piv);
      _mm256_storeu_pd(q + j, _mm256_add_pd(a, _mm256_xor_pd(b, meven)));
    }
    if (j < nd) {
      scalar::scale_run(q + j, (nd - j) / 2, odd ? pr1 : pr0,
                        odd ? pi1 : pi0);
    }
  }
}

QQ_SIMD_TARGET_AVX2 inline void rx_butterfly_runs(double* p0, double* p1,
                                                  std::size_t len, double c,
                                                  double s) noexcept {
  const __m256d cv = _mm256_set1_pd(c);
  const __m256d sv = _mm256_set1_pd(s);
  const __m256d modd = flip_odd();
  std::size_t j = 0;
  const std::size_t nd = 2 * len;
  for (; j + 4 <= nd; j += 4) {
    const __m256d v0 = _mm256_loadu_pd(p0 + j);
    const __m256d v1 = _mm256_loadu_pd(p1 + j);
    const __m256d t0 = _mm256_xor_pd(_mm256_mul_pd(swap_pairs(v1), sv), modd);
    const __m256d t1 = _mm256_xor_pd(_mm256_mul_pd(swap_pairs(v0), sv), modd);
    _mm256_storeu_pd(p0 + j, _mm256_add_pd(_mm256_mul_pd(v0, cv), t0));
    _mm256_storeu_pd(p1 + j, _mm256_add_pd(_mm256_mul_pd(v1, cv), t1));
  }
  if (j < nd) {
    scalar::rx_butterfly_runs(p0 + j, p1 + j, (nd - j) / 2, c, s);
  }
}

QQ_SIMD_TARGET_AVX2 inline void rx_interleaved_pairs(double* p,
                                                     std::size_t n_amps,
                                                     double c,
                                                     double s) noexcept {
  const __m256d cv = _mm256_set1_pd(c);
  const __m256d sv = _mm256_set1_pd(s);
  const __m256d modd = flip_odd();
  std::size_t j = 0;
  const std::size_t nd = 2 * n_amps;
  for (; j + 4 <= nd; j += 4) {
    const __m256d v = _mm256_loadu_pd(p + j);
    // [a0r a0i a1r a1i] reversed -> [a1i a1r a0i a0r]: each output double
    // pairs with the partner amplitude's swapped component.
    const __m256d rev = _mm256_permute4x64_pd(v, 0b00011011);
    const __m256d t = _mm256_xor_pd(_mm256_mul_pd(rev, sv), modd);
    _mm256_storeu_pd(p + j, _mm256_add_pd(_mm256_mul_pd(v, cv), t));
  }
  if (j < nd) scalar::rx_interleaved_pairs(p + j, (nd - j) / 2, c, s);
}

QQ_SIMD_TARGET_AVX2 inline void rx_quad01(double* p, std::size_t n_amps,
                                          double c, double s) noexcept {
  const __m256d cv = _mm256_set1_pd(c);
  const __m256d sv = _mm256_set1_pd(s);
  const __m256d modd = flip_odd();
  std::size_t j = 0;
  const std::size_t nd = 2 * n_amps;
  for (; j + 8 <= nd; j += 8) {
    const __m256d v0 = _mm256_loadu_pd(p + j);      // [a0 a1]
    const __m256d v1 = _mm256_loadu_pd(p + j + 4);  // [a2 a3]
    // Level 0: interleaved partner within each register (the
    // rx_interleaved_pairs body).
    const __m256d r0 = _mm256_permute4x64_pd(v0, 0b00011011);
    const __m256d r1 = _mm256_permute4x64_pd(v1, 0b00011011);
    const __m256d b0 = _mm256_add_pd(
        _mm256_mul_pd(v0, cv),
        _mm256_xor_pd(_mm256_mul_pd(r0, sv), modd));
    const __m256d b1 = _mm256_add_pd(
        _mm256_mul_pd(v1, cv),
        _mm256_xor_pd(_mm256_mul_pd(r1, sv), modd));
    // Level 1: elementwise across the two registers (the
    // rx_butterfly_runs body with run length 2).
    const __m256d t0 = _mm256_xor_pd(_mm256_mul_pd(swap_pairs(b1), sv), modd);
    const __m256d t1 = _mm256_xor_pd(_mm256_mul_pd(swap_pairs(b0), sv), modd);
    _mm256_storeu_pd(p + j, _mm256_add_pd(_mm256_mul_pd(b0, cv), t0));
    _mm256_storeu_pd(p + j + 4, _mm256_add_pd(_mm256_mul_pd(b1, cv), t1));
  }
  if (j < nd) scalar::rx_quad01(p + j, (nd - j) / 2, c, s);
}

QQ_SIMD_TARGET_AVX2 inline void rx_butterfly2_runs(double* p0, double* p1,
                                                   double* p2, double* p3,
                                                   std::size_t len, double c,
                                                   double s) noexcept {
  const __m256d cv = _mm256_set1_pd(c);
  const __m256d sv = _mm256_set1_pd(s);
  const __m256d modd = flip_odd();
  std::size_t j = 0;
  const std::size_t nd = 2 * len;
  for (; j + 4 <= nd; j += 4) {
    const __m256d v0 = _mm256_loadu_pd(p0 + j);
    const __m256d v1 = _mm256_loadu_pd(p1 + j);
    const __m256d v2 = _mm256_loadu_pd(p2 + j);
    const __m256d v3 = _mm256_loadu_pd(p3 + j);
    const __m256d b0 = _mm256_add_pd(
        _mm256_mul_pd(v0, cv),
        _mm256_xor_pd(_mm256_mul_pd(swap_pairs(v1), sv), modd));
    const __m256d b1 = _mm256_add_pd(
        _mm256_mul_pd(v1, cv),
        _mm256_xor_pd(_mm256_mul_pd(swap_pairs(v0), sv), modd));
    const __m256d b2 = _mm256_add_pd(
        _mm256_mul_pd(v2, cv),
        _mm256_xor_pd(_mm256_mul_pd(swap_pairs(v3), sv), modd));
    const __m256d b3 = _mm256_add_pd(
        _mm256_mul_pd(v3, cv),
        _mm256_xor_pd(_mm256_mul_pd(swap_pairs(v2), sv), modd));
    const __m256d t0 = _mm256_xor_pd(_mm256_mul_pd(swap_pairs(b2), sv), modd);
    const __m256d t1 = _mm256_xor_pd(_mm256_mul_pd(swap_pairs(b3), sv), modd);
    const __m256d t2 = _mm256_xor_pd(_mm256_mul_pd(swap_pairs(b0), sv), modd);
    const __m256d t3 = _mm256_xor_pd(_mm256_mul_pd(swap_pairs(b1), sv), modd);
    _mm256_storeu_pd(p0 + j, _mm256_add_pd(_mm256_mul_pd(b0, cv), t0));
    _mm256_storeu_pd(p1 + j, _mm256_add_pd(_mm256_mul_pd(b1, cv), t1));
    _mm256_storeu_pd(p2 + j, _mm256_add_pd(_mm256_mul_pd(b2, cv), t2));
    _mm256_storeu_pd(p3 + j, _mm256_add_pd(_mm256_mul_pd(b3, cv), t3));
  }
  if (j < nd) {
    scalar::rx_butterfly2_runs(p0 + j, p1 + j, p2 + j, p3 + j, (nd - j) / 2,
                               c, s);
  }
}

QQ_SIMD_TARGET_AVX2 inline void rx_block_levels(double* p, int levels,
                                                double c, double s) noexcept {
  if (levels <= 0) return;
  const std::size_t blk = std::size_t{1} << levels;
  if (levels == 1) {
    rx_interleaved_pairs(p, blk, c, s);
    return;
  }
  rx_quad01(p, blk, c, s);
  int q = 2;
  for (; q + 1 < levels; q += 2) {
    const std::size_t stride = std::size_t{1} << q;
    for (std::size_t base = 0; base < blk; base += 4 * stride) {
      rx_butterfly2_runs(p + 2 * base, p + 2 * (base + stride),
                         p + 2 * (base + 2 * stride),
                         p + 2 * (base + 3 * stride), stride, c, s);
    }
  }
  if (q < levels) {
    const std::size_t stride = std::size_t{1} << q;
    for (std::size_t base = 0; base < blk; base += 2 * stride) {
      rx_butterfly_runs(p + 2 * base, p + 2 * (base + stride), stride, c, s);
    }
  }
}

QQ_SIMD_TARGET_AVX2 inline void mul_table16_blocks(double* p,
                                                   std::size_t nblocks,
                                                   const double* tbl) noexcept {
  const __m256d meven = flip_even();
  __m256d tr[4];
  __m256d ti[4];
  for (int k = 0; k < 4; ++k) {
    const __m256d t = _mm256_loadu_pd(tbl + 4 * k);
    tr[k] = _mm256_permute_pd(t, 0b0000);              // [t0r t0r t1r t1r]
    ti[k] = _mm256_xor_pd(_mm256_permute_pd(t, 0b1111), meven);  // pre-negated re lane
  }
  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    double* q = p + 16 * blk;
    for (int k = 0; k < 4; ++k) {
      const __m256d v = _mm256_loadu_pd(q + 4 * k);
      const __m256d res = _mm256_add_pd(_mm256_mul_pd(v, tr[k]),
                                        _mm256_mul_pd(swap_pairs(v), ti[k]));
      _mm256_storeu_pd(q + 4 * k, res);
    }
  }
}

/// Squared norms of amplitudes [i, i+4) in element order:
/// hadd(v0*v0, v1*v1) yields [n0 n2 n1 n3]; each n is re*re + im*im, the
/// scalar std::norm operation order.
QQ_SIMD_TARGET_AVX2 inline __m256d norms4_shuffled(const double* p) noexcept {
  const __m256d v0 = _mm256_loadu_pd(p);
  const __m256d v1 = _mm256_loadu_pd(p + 4);
  return _mm256_hadd_pd(_mm256_mul_pd(v0, v0), _mm256_mul_pd(v1, v1));
}

QQ_SIMD_TARGET_AVX2 inline __m256d norms4_ordered(const double* p) noexcept {
  return _mm256_permute4x64_pd(norms4_shuffled(p), 0b11011000);  // [n0 n1 n2 n3]
}

QQ_SIMD_TARGET_AVX2 inline double sum_norms(double acc, const double* p,
                                            std::size_t n_amps) noexcept {
  std::size_t i = 0;
  alignas(32) double lane[4];
  for (; i + 4 <= n_amps; i += 4) {
    // Shuffled lane order [n0 n2 n1 n3]; fold back in element order.
    _mm256_store_pd(lane, norms4_shuffled(p + 2 * i));
    acc += lane[0];
    acc += lane[2];
    acc += lane[1];
    acc += lane[3];
  }
  return scalar::sum_norms(acc, p + 2 * i, n_amps - i);
}

QQ_SIMD_TARGET_AVX2 inline double sum_norms_weighted(
    double acc, const double* p, const double* w,
    std::size_t n_amps) noexcept {
  std::size_t i = 0;
  alignas(32) double lane[4];
  for (; i + 4 <= n_amps; i += 4) {
    const __m256d prod = _mm256_mul_pd(norms4_ordered(p + 2 * i),
                                       _mm256_loadu_pd(w + i));
    _mm256_store_pd(lane, prod);
    acc += lane[0];
    acc += lane[1];
    acc += lane[2];
    acc += lane[3];
  }
  return scalar::sum_norms_weighted(acc, p + 2 * i, w + i, n_amps - i);
}

QQ_SIMD_TARGET_AVX2 inline double sum_norm_quads(
    double acc, const double* p00, const double* p01, const double* p10,
    const double* p11, std::size_t n_amps) noexcept {
  std::size_t i = 0;
  alignas(32) double lane[4];
  for (; i + 4 <= n_amps; i += 4) {
    const __m256d d = _mm256_add_pd(
        _mm256_sub_pd(_mm256_sub_pd(norms4_shuffled(p00 + 2 * i),
                                    norms4_shuffled(p01 + 2 * i)),
                      norms4_shuffled(p10 + 2 * i)),
        norms4_shuffled(p11 + 2 * i));
    _mm256_store_pd(lane, d);
    acc += lane[0];
    acc += lane[2];
    acc += lane[1];
    acc += lane[3];
  }
  return scalar::sum_norm_quads(acc, p00 + 2 * i, p01 + 2 * i, p10 + 2 * i,
                                p11 + 2 * i, n_amps - i);
}

QQ_SIMD_TARGET_AVX2 inline void rx_butterfly_lanes(
    double* p0, double* p1, const double* cdup, const double* sdup,
    std::size_t lanes) noexcept {
  const __m256d modd = flip_odd();
  std::size_t j = 0;
  const std::size_t nd = 2 * lanes;
  for (; j + 4 <= nd; j += 4) {
    const __m256d cv = _mm256_loadu_pd(cdup + j);
    const __m256d sv = _mm256_loadu_pd(sdup + j);
    const __m256d v0 = _mm256_loadu_pd(p0 + j);
    const __m256d v1 = _mm256_loadu_pd(p1 + j);
    const __m256d t0 = _mm256_xor_pd(_mm256_mul_pd(swap_pairs(v1), sv), modd);
    const __m256d t1 = _mm256_xor_pd(_mm256_mul_pd(swap_pairs(v0), sv), modd);
    _mm256_storeu_pd(p0 + j, _mm256_add_pd(_mm256_mul_pd(v0, cv), t0));
    _mm256_storeu_pd(p1 + j, _mm256_add_pd(_mm256_mul_pd(v1, cv), t1));
  }
  if (j < nd) {
    scalar::rx_butterfly_lanes(p0 + j, p1 + j, cdup + j, sdup + j,
                               (nd - j) / 2);
  }
}

QQ_SIMD_TARGET_AVX2 inline void rx_butterfly2_lanes(
    double* p0, double* p1, double* p2, double* p3, const double* cdup,
    const double* sdup, std::size_t lanes) noexcept {
  const __m256d modd = flip_odd();
  std::size_t j = 0;
  const std::size_t nd = 2 * lanes;
  for (; j + 4 <= nd; j += 4) {
    const __m256d cv = _mm256_loadu_pd(cdup + j);
    const __m256d sv = _mm256_loadu_pd(sdup + j);
    const __m256d v0 = _mm256_loadu_pd(p0 + j);
    const __m256d v1 = _mm256_loadu_pd(p1 + j);
    const __m256d v2 = _mm256_loadu_pd(p2 + j);
    const __m256d v3 = _mm256_loadu_pd(p3 + j);
    const __m256d b0 = _mm256_add_pd(
        _mm256_mul_pd(v0, cv),
        _mm256_xor_pd(_mm256_mul_pd(swap_pairs(v1), sv), modd));
    const __m256d b1 = _mm256_add_pd(
        _mm256_mul_pd(v1, cv),
        _mm256_xor_pd(_mm256_mul_pd(swap_pairs(v0), sv), modd));
    const __m256d b2 = _mm256_add_pd(
        _mm256_mul_pd(v2, cv),
        _mm256_xor_pd(_mm256_mul_pd(swap_pairs(v3), sv), modd));
    const __m256d b3 = _mm256_add_pd(
        _mm256_mul_pd(v3, cv),
        _mm256_xor_pd(_mm256_mul_pd(swap_pairs(v2), sv), modd));
    const __m256d t0 = _mm256_xor_pd(_mm256_mul_pd(swap_pairs(b2), sv), modd);
    const __m256d t1 = _mm256_xor_pd(_mm256_mul_pd(swap_pairs(b3), sv), modd);
    const __m256d t2 = _mm256_xor_pd(_mm256_mul_pd(swap_pairs(b0), sv), modd);
    const __m256d t3 = _mm256_xor_pd(_mm256_mul_pd(swap_pairs(b1), sv), modd);
    _mm256_storeu_pd(p0 + j, _mm256_add_pd(_mm256_mul_pd(b0, cv), t0));
    _mm256_storeu_pd(p1 + j, _mm256_add_pd(_mm256_mul_pd(b1, cv), t1));
    _mm256_storeu_pd(p2 + j, _mm256_add_pd(_mm256_mul_pd(b2, cv), t2));
    _mm256_storeu_pd(p3 + j, _mm256_add_pd(_mm256_mul_pd(b3, cv), t3));
  }
  if (j < nd) {
    scalar::rx_butterfly2_lanes(p0 + j, p1 + j, p2 + j, p3 + j, cdup + j,
                                sdup + j, (nd - j) / 2);
  }
}

QQ_SIMD_TARGET_AVX2 inline void sum_norms_weighted_rows(
    double* acc, const double* rows, std::ptrdiff_t step, std::size_t lanes,
    const double* values, std::size_t count) noexcept {
  std::size_t b = 0;
  for (; b + 4 <= lanes; b += 4) {
    // Four lanes' accumulators ride in one register across the whole i
    // sweep; each lane's adds stay sequential in i.
    __m256d accv = _mm256_loadu_pd(acc + b);
    const double* q = rows + 2 * b;
    for (std::size_t i = 0; i < count; ++i, q += step) {
      accv = _mm256_add_pd(
          accv, _mm256_mul_pd(norms4_ordered(q), _mm256_set1_pd(values[i])));
    }
    _mm256_storeu_pd(acc + b, accv);
  }
  // Remaining lanes share the row pointers; delegate per-lane scalar.
  if (b < lanes) {
    scalar::sum_norms_weighted_rows(acc + b, rows + 2 * b, step, lanes - b,
                                    values, count);
  }
}

QQ_SIMD_TARGET_AVX2 inline void mul_level_phase_lanes(
    double* data, std::size_t lanes, const double* phase,
    const std::uint32_t* level, std::size_t lo, std::size_t hi) noexcept {
  const std::size_t nd = 2 * lanes;
  if (nd % 4 != 0) {
    scalar::mul_level_phase_lanes(data, lanes, phase, level, lo, hi);
    return;
  }
  const __m256d meven = flip_even();
  for (std::size_t i = lo; i < hi; ++i) {
    double* row = data + nd * i;
    const double* ph = phase + nd * level[i];
    for (std::size_t j = 0; j < nd; j += 4) {
      // [pr pr] and [-pi pi] per lane: v*pr + swap(v)*(+-pi) is the scalar
      // (re*pr - im*pi, im*pr + re*pi) through x + (-y) == x - y.
      const __m256d t = _mm256_loadu_pd(ph + j);
      const __m256d tr = _mm256_permute_pd(t, 0b0000);
      const __m256d ti = _mm256_xor_pd(_mm256_permute_pd(t, 0b1111), meven);
      const __m256d v = _mm256_loadu_pd(row + j);
      _mm256_storeu_pd(row + j, _mm256_add_pd(_mm256_mul_pd(v, tr),
                                              _mm256_mul_pd(swap_pairs(v), ti)));
    }
  }
}

}  // namespace avx2

// ---- AVX-512 backend -----------------------------------------------------
// 8 doubles (4 complex amplitudes) per __m512d, elementwise primitives
// only: the ordered reductions dispatch to the AVX2 bodies (their cost is
// the sequential horizontal fold, which wider vectors cannot help).

namespace avx512 {

QQ_SIMD_TARGET_AVX512 inline __m512d swap_pairs(__m512d v) noexcept {
  return _mm512_permute_pd(v, 0b01010101);
}

QQ_SIMD_TARGET_AVX512 inline __m512d flip_even(void) noexcept {
  return _mm512_set_pd(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0);
}

QQ_SIMD_TARGET_AVX512 inline __m512d flip_odd(void) noexcept {
  return _mm512_set_pd(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0);
}

QQ_SIMD_TARGET_AVX512 inline void scale_run(double* p, std::size_t len,
                                            double pr, double pi) noexcept {
  const __m512d prv = _mm512_set1_pd(pr);
  const __m512d piv = _mm512_set1_pd(pi);
  const __m512d meven = flip_even();
  std::size_t j = 0;
  const std::size_t nd = 2 * len;
  for (; j + 8 <= nd; j += 8) {
    const __m512d v = _mm512_loadu_pd(p + j);
    const __m512d a = _mm512_mul_pd(v, prv);
    const __m512d b = _mm512_mul_pd(swap_pairs(v), piv);
    _mm512_storeu_pd(p + j, _mm512_add_pd(a, _mm512_xor_pd(b, meven)));
  }
  if (j < nd) scalar::scale_run(p + j, (nd - j) / 2, pr, pi);
}

QQ_SIMD_TARGET_AVX512 inline void negate_run(double* p,
                                             std::size_t len) noexcept {
  const __m512d sign = _mm512_set1_pd(-0.0);
  std::size_t j = 0;
  const std::size_t nd = 2 * len;
  for (; j + 8 <= nd; j += 8) {
    _mm512_storeu_pd(p + j, _mm512_xor_pd(_mm512_loadu_pd(p + j), sign));
  }
  for (; j < nd; ++j) p[j] = -p[j];
}

QQ_SIMD_TARGET_AVX512 inline void scale_runs_pattern(
    double* p, std::size_t r0, std::size_t nruns, std::size_t run_amps,
    std::size_t selmask, double pr0, double pi0, double pr1,
    double pi1) noexcept {
  const __m512d pr0v = _mm512_set1_pd(pr0);
  const __m512d pi0v = _mm512_set1_pd(pi0);
  const __m512d pr1v = _mm512_set1_pd(pr1);
  const __m512d pi1v = _mm512_set1_pd(pi1);
  const __m512d meven = flip_even();
  const std::size_t nd = 2 * run_amps;
  for (std::size_t k = 0; k < nruns; ++k) {
    const bool odd = (std::popcount((r0 + k) & selmask) & 1) != 0;
    const __m512d prv = odd ? pr1v : pr0v;
    const __m512d piv = odd ? pi1v : pi0v;
    double* q = p + nd * k;
    std::size_t j = 0;
    for (; j + 8 <= nd; j += 8) {
      const __m512d v = _mm512_loadu_pd(q + j);
      const __m512d a = _mm512_mul_pd(v, prv);
      const __m512d b = _mm512_mul_pd(swap_pairs(v), piv);
      _mm512_storeu_pd(q + j, _mm512_add_pd(a, _mm512_xor_pd(b, meven)));
    }
    if (j < nd) {
      scalar::scale_run(q + j, (nd - j) / 2, odd ? pr1 : pr0,
                        odd ? pi1 : pi0);
    }
  }
}

QQ_SIMD_TARGET_AVX512 inline void rx_butterfly_runs(double* p0, double* p1,
                                                    std::size_t len, double c,
                                                    double s) noexcept {
  const __m512d cv = _mm512_set1_pd(c);
  const __m512d sv = _mm512_set1_pd(s);
  const __m512d modd = flip_odd();
  std::size_t j = 0;
  const std::size_t nd = 2 * len;
  for (; j + 8 <= nd; j += 8) {
    const __m512d v0 = _mm512_loadu_pd(p0 + j);
    const __m512d v1 = _mm512_loadu_pd(p1 + j);
    const __m512d t0 = _mm512_xor_pd(_mm512_mul_pd(swap_pairs(v1), sv), modd);
    const __m512d t1 = _mm512_xor_pd(_mm512_mul_pd(swap_pairs(v0), sv), modd);
    _mm512_storeu_pd(p0 + j, _mm512_add_pd(_mm512_mul_pd(v0, cv), t0));
    _mm512_storeu_pd(p1 + j, _mm512_add_pd(_mm512_mul_pd(v1, cv), t1));
  }
  if (j < nd) {
    scalar::rx_butterfly_runs(p0 + j, p1 + j, (nd - j) / 2, c, s);
  }
}

QQ_SIMD_TARGET_AVX512 inline void rx_interleaved_pairs(double* p,
                                                       std::size_t n_amps,
                                                       double c,
                                                       double s) noexcept {
  const __m512d cv = _mm512_set1_pd(c);
  const __m512d sv = _mm512_set1_pd(s);
  const __m512d modd = flip_odd();
  std::size_t j = 0;
  const std::size_t nd = 2 * n_amps;
  for (; j + 8 <= nd; j += 8) {
    const __m512d v = _mm512_loadu_pd(p + j);
    // Reverse within each 256-bit half: two interleaved butterfly pairs.
    const __m512d rev = _mm512_permutex_pd(v, 0b00011011);
    const __m512d t = _mm512_xor_pd(_mm512_mul_pd(rev, sv), modd);
    _mm512_storeu_pd(p + j, _mm512_add_pd(_mm512_mul_pd(v, cv), t));
  }
  if (j < nd) scalar::rx_interleaved_pairs(p + j, (nd - j) / 2, c, s);
}

QQ_SIMD_TARGET_AVX512 inline void rx_quad01(double* p, std::size_t n_amps,
                                            double c, double s) noexcept {
  const __m512d cv = _mm512_set1_pd(c);
  const __m512d sv = _mm512_set1_pd(s);
  const __m512d modd = flip_odd();
  std::size_t j = 0;
  const std::size_t nd = 2 * n_amps;
  for (; j + 8 <= nd; j += 8) {
    const __m512d v = _mm512_loadu_pd(p + j);  // one quartet [a0 a1 a2 a3]
    // Level 0: interleaved partner within each 256-bit half.
    const __m512d rev = _mm512_permutex_pd(v, 0b00011011);
    const __m512d b = _mm512_add_pd(
        _mm512_mul_pd(v, cv),
        _mm512_xor_pd(_mm512_mul_pd(rev, sv), modd));
    // Level 1: partner lives in the other 256-bit half; 0x4E swaps the
    // 128-bit chunks [c0 c1 c2 c3] -> [c2 c3 c0 c1]. Both halves use the
    // same +/- pattern (o0 = c*b0 + s*swap(b2) with modd, o2 symmetric),
    // so one register expression covers the whole quartet.
    const __m512d w = _mm512_shuffle_f64x2(b, b, 0x4E);
    const __m512d t = _mm512_xor_pd(_mm512_mul_pd(swap_pairs(w), sv), modd);
    _mm512_storeu_pd(p + j, _mm512_add_pd(_mm512_mul_pd(b, cv), t));
  }
  if (j < nd) scalar::rx_quad01(p + j, (nd - j) / 2, c, s);
}

QQ_SIMD_TARGET_AVX512 inline void rx_butterfly2_runs(double* p0, double* p1,
                                                     double* p2, double* p3,
                                                     std::size_t len, double c,
                                                     double s) noexcept {
  const __m512d cv = _mm512_set1_pd(c);
  const __m512d sv = _mm512_set1_pd(s);
  const __m512d modd = flip_odd();
  std::size_t j = 0;
  const std::size_t nd = 2 * len;
  for (; j + 8 <= nd; j += 8) {
    const __m512d v0 = _mm512_loadu_pd(p0 + j);
    const __m512d v1 = _mm512_loadu_pd(p1 + j);
    const __m512d v2 = _mm512_loadu_pd(p2 + j);
    const __m512d v3 = _mm512_loadu_pd(p3 + j);
    const __m512d b0 = _mm512_add_pd(
        _mm512_mul_pd(v0, cv),
        _mm512_xor_pd(_mm512_mul_pd(swap_pairs(v1), sv), modd));
    const __m512d b1 = _mm512_add_pd(
        _mm512_mul_pd(v1, cv),
        _mm512_xor_pd(_mm512_mul_pd(swap_pairs(v0), sv), modd));
    const __m512d b2 = _mm512_add_pd(
        _mm512_mul_pd(v2, cv),
        _mm512_xor_pd(_mm512_mul_pd(swap_pairs(v3), sv), modd));
    const __m512d b3 = _mm512_add_pd(
        _mm512_mul_pd(v3, cv),
        _mm512_xor_pd(_mm512_mul_pd(swap_pairs(v2), sv), modd));
    const __m512d t0 = _mm512_xor_pd(_mm512_mul_pd(swap_pairs(b2), sv), modd);
    const __m512d t1 = _mm512_xor_pd(_mm512_mul_pd(swap_pairs(b3), sv), modd);
    const __m512d t2 = _mm512_xor_pd(_mm512_mul_pd(swap_pairs(b0), sv), modd);
    const __m512d t3 = _mm512_xor_pd(_mm512_mul_pd(swap_pairs(b1), sv), modd);
    _mm512_storeu_pd(p0 + j, _mm512_add_pd(_mm512_mul_pd(b0, cv), t0));
    _mm512_storeu_pd(p1 + j, _mm512_add_pd(_mm512_mul_pd(b1, cv), t1));
    _mm512_storeu_pd(p2 + j, _mm512_add_pd(_mm512_mul_pd(b2, cv), t2));
    _mm512_storeu_pd(p3 + j, _mm512_add_pd(_mm512_mul_pd(b3, cv), t3));
  }
  if (j < nd) {
    scalar::rx_butterfly2_runs(p0 + j, p1 + j, p2 + j, p3 + j, (nd - j) / 2,
                               c, s);
  }
}

QQ_SIMD_TARGET_AVX512 inline void rx_block_levels(double* p, int levels,
                                                  double c,
                                                  double s) noexcept {
  if (levels <= 0) return;
  const std::size_t blk = std::size_t{1} << levels;
  if (levels == 1) {
    rx_interleaved_pairs(p, blk, c, s);
    return;
  }
  rx_quad01(p, blk, c, s);
  int q = 2;
  for (; q + 1 < levels; q += 2) {
    const std::size_t stride = std::size_t{1} << q;  // >= 4 amps: zmm-exact
    for (std::size_t base = 0; base < blk; base += 4 * stride) {
      rx_butterfly2_runs(p + 2 * base, p + 2 * (base + stride),
                         p + 2 * (base + 2 * stride),
                         p + 2 * (base + 3 * stride), stride, c, s);
    }
  }
  if (q < levels) {
    const std::size_t stride = std::size_t{1} << q;
    for (std::size_t base = 0; base < blk; base += 2 * stride) {
      rx_butterfly_runs(p + 2 * base, p + 2 * (base + stride), stride, c, s);
    }
  }
}

QQ_SIMD_TARGET_AVX512 inline void mul_table16_blocks(
    double* p, std::size_t nblocks, const double* tbl) noexcept {
  const __m512d meven = flip_even();
  __m512d tr[2];
  __m512d ti[2];
  for (int k = 0; k < 2; ++k) {
    const __m512d t = _mm512_loadu_pd(tbl + 8 * k);
    tr[k] = _mm512_permute_pd(t, 0b00000000);
    ti[k] = _mm512_xor_pd(_mm512_permute_pd(t, 0b11111111), meven);
  }
  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    double* q = p + 16 * blk;
    for (int k = 0; k < 2; ++k) {
      const __m512d v = _mm512_loadu_pd(q + 8 * k);
      const __m512d res = _mm512_add_pd(_mm512_mul_pd(v, tr[k]),
                                        _mm512_mul_pd(swap_pairs(v), ti[k]));
      _mm512_storeu_pd(q + 8 * k, res);
    }
  }
}

QQ_SIMD_TARGET_AVX512 inline void rx_butterfly_lanes(
    double* p0, double* p1, const double* cdup, const double* sdup,
    std::size_t lanes) noexcept {
  const __m512d modd = flip_odd();
  std::size_t j = 0;
  const std::size_t nd = 2 * lanes;
  for (; j + 8 <= nd; j += 8) {
    const __m512d cv = _mm512_loadu_pd(cdup + j);
    const __m512d sv = _mm512_loadu_pd(sdup + j);
    const __m512d v0 = _mm512_loadu_pd(p0 + j);
    const __m512d v1 = _mm512_loadu_pd(p1 + j);
    const __m512d t0 = _mm512_xor_pd(_mm512_mul_pd(swap_pairs(v1), sv), modd);
    const __m512d t1 = _mm512_xor_pd(_mm512_mul_pd(swap_pairs(v0), sv), modd);
    _mm512_storeu_pd(p0 + j, _mm512_add_pd(_mm512_mul_pd(v0, cv), t0));
    _mm512_storeu_pd(p1 + j, _mm512_add_pd(_mm512_mul_pd(v1, cv), t1));
  }
  if (j < nd) {
    scalar::rx_butterfly_lanes(p0 + j, p1 + j, cdup + j, sdup + j,
                               (nd - j) / 2);
  }
}

QQ_SIMD_TARGET_AVX512 inline void rx_butterfly2_lanes(
    double* p0, double* p1, double* p2, double* p3, const double* cdup,
    const double* sdup, std::size_t lanes) noexcept {
  const __m512d modd = flip_odd();
  std::size_t j = 0;
  const std::size_t nd = 2 * lanes;
  for (; j + 8 <= nd; j += 8) {
    const __m512d cv = _mm512_loadu_pd(cdup + j);
    const __m512d sv = _mm512_loadu_pd(sdup + j);
    const __m512d v0 = _mm512_loadu_pd(p0 + j);
    const __m512d v1 = _mm512_loadu_pd(p1 + j);
    const __m512d v2 = _mm512_loadu_pd(p2 + j);
    const __m512d v3 = _mm512_loadu_pd(p3 + j);
    const __m512d b0 = _mm512_add_pd(
        _mm512_mul_pd(v0, cv),
        _mm512_xor_pd(_mm512_mul_pd(swap_pairs(v1), sv), modd));
    const __m512d b1 = _mm512_add_pd(
        _mm512_mul_pd(v1, cv),
        _mm512_xor_pd(_mm512_mul_pd(swap_pairs(v0), sv), modd));
    const __m512d b2 = _mm512_add_pd(
        _mm512_mul_pd(v2, cv),
        _mm512_xor_pd(_mm512_mul_pd(swap_pairs(v3), sv), modd));
    const __m512d b3 = _mm512_add_pd(
        _mm512_mul_pd(v3, cv),
        _mm512_xor_pd(_mm512_mul_pd(swap_pairs(v2), sv), modd));
    const __m512d t0 = _mm512_xor_pd(_mm512_mul_pd(swap_pairs(b2), sv), modd);
    const __m512d t1 = _mm512_xor_pd(_mm512_mul_pd(swap_pairs(b3), sv), modd);
    const __m512d t2 = _mm512_xor_pd(_mm512_mul_pd(swap_pairs(b0), sv), modd);
    const __m512d t3 = _mm512_xor_pd(_mm512_mul_pd(swap_pairs(b1), sv), modd);
    _mm512_storeu_pd(p0 + j, _mm512_add_pd(_mm512_mul_pd(b0, cv), t0));
    _mm512_storeu_pd(p1 + j, _mm512_add_pd(_mm512_mul_pd(b1, cv), t1));
    _mm512_storeu_pd(p2 + j, _mm512_add_pd(_mm512_mul_pd(b2, cv), t2));
    _mm512_storeu_pd(p3 + j, _mm512_add_pd(_mm512_mul_pd(b3, cv), t3));
  }
  if (j < nd) {
    scalar::rx_butterfly2_lanes(p0 + j, p1 + j, p2 + j, p3 + j, cdup + j,
                                sdup + j, (nd - j) / 2);
  }
}

QQ_SIMD_TARGET_AVX512 inline void mul_level_phase_lanes(
    double* data, std::size_t lanes, const double* phase,
    const std::uint32_t* level, std::size_t lo, std::size_t hi) noexcept {
  const std::size_t nd = 2 * lanes;
  if (nd % 8 != 0) {
    avx2::mul_level_phase_lanes(data, lanes, phase, level, lo, hi);
    return;
  }
  const __m512d meven = flip_even();
  for (std::size_t i = lo; i < hi; ++i) {
    double* row = data + nd * i;
    const double* ph = phase + nd * level[i];
    for (std::size_t j = 0; j < nd; j += 8) {
      const __m512d t = _mm512_loadu_pd(ph + j);
      const __m512d tr = _mm512_permute_pd(t, 0x00);
      const __m512d ti = _mm512_xor_pd(_mm512_permute_pd(t, 0xff), meven);
      const __m512d v = _mm512_loadu_pd(row + j);
      _mm512_storeu_pd(row + j, _mm512_add_pd(_mm512_mul_pd(v, tr),
                                              _mm512_mul_pd(swap_pairs(v), ti)));
    }
  }
}

}  // namespace avx512

#endif  // QQ_SIMD_X86

// ---- dispatched entry points ---------------------------------------------
// One relaxed atomic load + a predicted switch per call; the kernels call
// these once per contiguous run (thousands of elements), so dispatch cost
// is noise.

// Short runs (z/rz/rzz at low qubits) skip dispatch entirely: the scalar
// body inlines into the caller and beats a call into a target-attributed
// function it cannot inline. Safe for the bit-for-bit contract — every
// backend computes identical bits, so mixing per run length changes
// nothing observable.
inline constexpr std::size_t kShortRunAmps = 8;

inline void scale_run(double* p, std::size_t len, double pr,
                      double pi) noexcept {
#if QQ_SIMD_X86
  if (len >= kShortRunAmps) {
    switch (active_isa()) {
      case Isa::kAvx512:
        avx512::scale_run(p, len, pr, pi);
        return;
      case Isa::kAvx2:
        avx2::scale_run(p, len, pr, pi);
        return;
      case Isa::kScalar:
        break;
    }
  }
#endif
  scalar::scale_run(p, len, pr, pi);
}

inline void negate_run(double* p, std::size_t len) noexcept {
#if QQ_SIMD_X86
  if (len >= kShortRunAmps) {
    switch (active_isa()) {
      case Isa::kAvx512:
        avx512::negate_run(p, len);
        return;
      case Isa::kAvx2:
        avx2::negate_run(p, len);
        return;
      case Isa::kScalar:
        break;
    }
  }
#endif
  scalar::negate_run(p, len);
}

inline void scale_runs_pattern(double* p, std::size_t r0, std::size_t nruns,
                               std::size_t run_amps, std::size_t selmask,
                               double pr0, double pi0, double pr1,
                               double pi1) noexcept {
#if QQ_SIMD_X86
  switch (active_isa()) {
    case Isa::kAvx512:
      avx512::scale_runs_pattern(p, r0, nruns, run_amps, selmask, pr0, pi0,
                                 pr1, pi1);
      return;
    case Isa::kAvx2:
      avx2::scale_runs_pattern(p, r0, nruns, run_amps, selmask, pr0, pi0,
                               pr1, pi1);
      return;
    case Isa::kScalar:
      break;
  }
#endif
  scalar::scale_runs_pattern(p, r0, nruns, run_amps, selmask, pr0, pi0, pr1,
                             pi1);
}

inline void rx_butterfly_runs(double* p0, double* p1, std::size_t len,
                              double c, double s) noexcept {
#if QQ_SIMD_X86
  switch (active_isa()) {
    case Isa::kAvx512:
      avx512::rx_butterfly_runs(p0, p1, len, c, s);
      return;
    case Isa::kAvx2:
      avx2::rx_butterfly_runs(p0, p1, len, c, s);
      return;
    case Isa::kScalar:
      break;
  }
#endif
  scalar::rx_butterfly_runs(p0, p1, len, c, s);
}

inline void rx_interleaved_pairs(double* p, std::size_t n_amps, double c,
                                 double s) noexcept {
#if QQ_SIMD_X86
  switch (active_isa()) {
    case Isa::kAvx512:
      avx512::rx_interleaved_pairs(p, n_amps, c, s);
      return;
    case Isa::kAvx2:
      avx2::rx_interleaved_pairs(p, n_amps, c, s);
      return;
    case Isa::kScalar:
      break;
  }
#endif
  scalar::rx_interleaved_pairs(p, n_amps, c, s);
}

inline void rx_quad01(double* p, std::size_t n_amps, double c,
                      double s) noexcept {
#if QQ_SIMD_X86
  switch (active_isa()) {
    case Isa::kAvx512:
      avx512::rx_quad01(p, n_amps, c, s);
      return;
    case Isa::kAvx2:
      avx2::rx_quad01(p, n_amps, c, s);
      return;
    case Isa::kScalar:
      break;
  }
#endif
  scalar::rx_quad01(p, n_amps, c, s);
}

inline void rx_butterfly2_runs(double* p0, double* p1, double* p2, double* p3,
                               std::size_t len, double c, double s) noexcept {
#if QQ_SIMD_X86
  switch (active_isa()) {
    case Isa::kAvx512:
      avx512::rx_butterfly2_runs(p0, p1, p2, p3, len, c, s);
      return;
    case Isa::kAvx2:
      avx2::rx_butterfly2_runs(p0, p1, p2, p3, len, c, s);
      return;
    case Isa::kScalar:
      break;
  }
#endif
  scalar::rx_butterfly2_runs(p0, p1, p2, p3, len, c, s);
}

/// One dispatch covers all 2^levels amplitudes of a block — the pass-1
/// mixer hot path resolves the backend once per block, not once per
/// butterfly run.
inline void rx_block_levels(double* p, int levels, double c,
                            double s) noexcept {
#if QQ_SIMD_X86
  switch (active_isa()) {
    case Isa::kAvx512:
      avx512::rx_block_levels(p, levels, c, s);
      return;
    case Isa::kAvx2:
      avx2::rx_block_levels(p, levels, c, s);
      return;
    case Isa::kScalar:
      break;
  }
#endif
  scalar::rx_block_levels(p, levels, c, s);
}

inline void mul_table16_blocks(double* p, std::size_t nblocks,
                               const double* tbl) noexcept {
#if QQ_SIMD_X86
  switch (active_isa()) {
    case Isa::kAvx512:
      avx512::mul_table16_blocks(p, nblocks, tbl);
      return;
    case Isa::kAvx2:
      avx2::mul_table16_blocks(p, nblocks, tbl);
      return;
    case Isa::kScalar:
      break;
  }
#endif
  scalar::mul_table16_blocks(p, nblocks, tbl);
}

inline double sum_norms(double acc, const double* p,
                        std::size_t n_amps) noexcept {
#if QQ_SIMD_X86
  if (active_isa() != Isa::kScalar) {
    return avx2::sum_norms(acc, p, n_amps);
  }
#endif
  return scalar::sum_norms(acc, p, n_amps);
}

inline double sum_norms_weighted(double acc, const double* p, const double* w,
                                 std::size_t n_amps) noexcept {
#if QQ_SIMD_X86
  if (active_isa() != Isa::kScalar) {
    return avx2::sum_norms_weighted(acc, p, w, n_amps);
  }
#endif
  return scalar::sum_norms_weighted(acc, p, w, n_amps);
}

inline double sum_norm_quads(double acc, const double* p00, const double* p01,
                             const double* p10, const double* p11,
                             std::size_t n_amps) noexcept {
#if QQ_SIMD_X86
  if (active_isa() != Isa::kScalar) {
    return avx2::sum_norm_quads(acc, p00, p01, p10, p11, n_amps);
  }
#endif
  return scalar::sum_norm_quads(acc, p00, p01, p10, p11, n_amps);
}

inline void rx_butterfly_lanes(double* p0, double* p1, const double* cdup,
                               const double* sdup,
                               std::size_t lanes) noexcept {
#if QQ_SIMD_X86
  switch (active_isa()) {
    case Isa::kAvx512:
      avx512::rx_butterfly_lanes(p0, p1, cdup, sdup, lanes);
      return;
    case Isa::kAvx2:
      avx2::rx_butterfly_lanes(p0, p1, cdup, sdup, lanes);
      return;
    case Isa::kScalar:
      break;
  }
#endif
  scalar::rx_butterfly_lanes(p0, p1, cdup, sdup, lanes);
}

inline void rx_butterfly2_lanes(double* p0, double* p1, double* p2,
                                double* p3, const double* cdup,
                                const double* sdup,
                                std::size_t lanes) noexcept {
#if QQ_SIMD_X86
  switch (active_isa()) {
    case Isa::kAvx512:
      avx512::rx_butterfly2_lanes(p0, p1, p2, p3, cdup, sdup, lanes);
      return;
    case Isa::kAvx2:
      avx2::rx_butterfly2_lanes(p0, p1, p2, p3, cdup, sdup, lanes);
      return;
    case Isa::kScalar:
      break;
  }
#endif
  scalar::rx_butterfly2_lanes(p0, p1, p2, p3, cdup, sdup, lanes);
}

inline void sum_norms_weighted_rows(double* acc, const double* rows,
                                    std::ptrdiff_t step, std::size_t lanes,
                                    const double* values,
                                    std::size_t count) noexcept {
#if QQ_SIMD_X86
  if (active_isa() != Isa::kScalar) {
    avx2::sum_norms_weighted_rows(acc, rows, step, lanes, values, count);
    return;
  }
#endif
  scalar::sum_norms_weighted_rows(acc, rows, step, lanes, values, count);
}

inline void mul_level_phase_lanes(double* data, std::size_t lanes,
                                  const double* phase,
                                  const std::uint32_t* level, std::size_t lo,
                                  std::size_t hi) noexcept {
#if QQ_SIMD_X86
  switch (active_isa()) {
    case Isa::kAvx512:
      avx512::mul_level_phase_lanes(data, lanes, phase, level, lo, hi);
      return;
    case Isa::kAvx2:
      avx2::mul_level_phase_lanes(data, lanes, phase, level, lo, hi);
      return;
    case Isa::kScalar:
      break;
  }
#endif
  scalar::mul_level_phase_lanes(data, lanes, phase, level, lo, hi);
}

}  // namespace qq::sim::simd

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#pragma GCC pop_options
#endif
