// SIMD backend parity: every dispatched primitive and every rewired kernel
// must produce BIT-FOR-BIT the scalar reference's output under every backend
// the machine supports (AVX2, AVX-512). The suite forces backends through
// simd::set_isa, so one binary proves the whole matrix; on a QQ_SIMD=OFF
// build (or non-x86) set_isa clamps to scalar and the comparisons degenerate
// to scalar-vs-scalar, keeping the suite meaningful in both CI legs.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "qsim/measure.hpp"
#include "qsim/simd.hpp"
#include "qsim/statevector.hpp"
#include "test_isa.hpp"
#include "util/rng.hpp"

namespace qq::sim {
namespace {

using testing::available_isas;
using testing::bits_equal;
using testing::IsaGuard;

/// Deterministic circuit exercising every dispatched kernel: z / rz
/// (low-qubit table AND high-qubit run paths) / rzz (all qubit-pair
/// geometries) / the fused mixer, interleaved with h gates so the
/// amplitudes stay dense and irrational.
void run_kernel_circuit(StateVector& sv, std::uint64_t seed) {
  const int n = sv.num_qubits();
  util::Rng rng(seed);
  sv.reset_to_plus();
  for (int q = 0; q < n; ++q) {
    sv.apply_rz(q, util::uniform(rng, -2.0, 2.0));
  }
  sv.apply_rx_layer(util::uniform(rng, -2.0, 2.0));
  for (int a = 0; a < n; ++a) {
    const int b = (a + 1 + (a % 3)) % n;
    if (a == b) continue;
    sv.apply_rzz(a, b, util::uniform(rng, -2.0, 2.0));
    if (a % 2 == 0) sv.apply_z(a);
  }
  if (n >= 1) sv.apply_z(0);
  if (n >= 2) sv.apply_z(n - 1);
  sv.apply_rx_layer(util::uniform(rng, -2.0, 2.0));
  for (int q = 0; q < n; ++q) {
    if (q % 3 == 0) sv.apply_h(q);
  }
  sv.apply_rz(n / 2, 0.7071067811865476);
}

class SimdStateParity : public ::testing::TestWithParam<int> {};

TEST_P(SimdStateParity, AllBackendsMatchScalarBitForBit) {
  const int n = GetParam();
  IsaGuard guard;

  simd::set_isa(simd::Isa::kScalar);
  StateVector reference(n);
  run_kernel_circuit(reference, 42 + static_cast<std::uint64_t>(n));
  const double ref_norm = reference.norm_squared();
  const double ref_zz = n >= 2 ? expectation_zz(reference, 0, n - 1) : 0.0;
  std::vector<double> weights(reference.size());
  util::Rng wrng(7);
  for (double& w : weights) w = util::uniform(wrng, -1.0, 1.0);
  const double ref_exp = expectation_diagonal(reference, weights);

  for (const simd::Isa isa : available_isas()) {
    ASSERT_EQ(simd::set_isa(isa), isa);
    StateVector sv(n);
    run_kernel_circuit(sv, 42 + static_cast<std::uint64_t>(n));
    EXPECT_TRUE(bits_equal(sv, reference))
        << "state diverged under " << simd::isa_name(isa);
    // The reductions are exact-equality too: the vector bodies only cover
    // the per-element products, the fold order is the scalar one.
    EXPECT_EQ(sv.norm_squared(), ref_norm) << simd::isa_name(isa);
    EXPECT_EQ(expectation_diagonal(sv, weights), ref_exp)
        << simd::isa_name(isa);
    if (n >= 2) {
      EXPECT_EQ(expectation_zz(sv, 0, n - 1), ref_zz) << simd::isa_name(isa);
    }
  }
}

// n = 1..14 covers every tail case of the 2- and 4-amplitude vector widths
// and both rz/rzz structural paths (table vs runs).
INSTANTIATE_TEST_SUITE_P(QubitCounts, SimdStateParity,
                         ::testing::Range(1, 15));

class SimdMixerBoundary : public ::testing::TestWithParam<int> {};

TEST_P(SimdMixerBoundary, FusedMixerMatchesScalarAtBlockBoundaries) {
  // 11/12/13: around the kFusedBlockQubits=12 pass-1 block size.
  // 14: pass 2 with a partial high group. 21 = 12 + 8 + 1: pass 2 runs one
  // full kFusedGroupQubits group plus a 1-qubit remainder group.
  const int n = GetParam();
  IsaGuard guard;

  simd::set_isa(simd::Isa::kScalar);
  StateVector reference(n);
  reference.reset_to_plus();
  reference.apply_rz(0, 0.37);
  reference.apply_rx_layer(1.234567);
  reference.apply_rx_layer(-0.654321);

  for (const simd::Isa isa : available_isas()) {
    ASSERT_EQ(simd::set_isa(isa), isa);
    StateVector sv(n);
    sv.reset_to_plus();
    sv.apply_rz(0, 0.37);
    sv.apply_rx_layer(1.234567);
    sv.apply_rx_layer(-0.654321);
    EXPECT_TRUE(bits_equal(sv, reference))
        << "mixer diverged under " << simd::isa_name(isa) << " at n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Boundaries, SimdMixerBoundary,
                         ::testing::Values(11, 12, 13, 14, 21));

/// Direct primitive-level parity on deliberately awkward lengths (0, 1,
/// odd, just-below/above vector width) so the tail handling is pinned.
class SimdPrimitiveParity : public ::testing::TestWithParam<std::size_t> {};

std::vector<double> random_doubles(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  util::Rng rng(seed);
  for (double& x : v) x = util::uniform(rng, -1.0, 1.0);
  return v;
}

TEST_P(SimdPrimitiveParity, ElementwisePrimitivesMatchScalar) {
  const std::size_t len = GetParam();
  IsaGuard guard;
  const std::vector<double> base = random_doubles(2 * len, 99 + len);
  const std::vector<double> base1 = random_doubles(2 * len, 7 + len);

  for (const simd::Isa isa : available_isas()) {
    ASSERT_EQ(simd::set_isa(isa), isa);

    std::vector<double> expect = base;
    simd::scalar::scale_run(expect.data(), len, 0.8, -0.6);
    std::vector<double> got = base;
    simd::scale_run(got.data(), len, 0.8, -0.6);
    EXPECT_EQ(got, expect) << "scale_run " << simd::isa_name(isa);

    expect = base;
    simd::scalar::negate_run(expect.data(), len);
    got = base;
    simd::negate_run(got.data(), len);
    EXPECT_EQ(got, expect) << "negate_run " << simd::isa_name(isa);

    std::vector<double> e0 = base;
    std::vector<double> e1 = base1;
    simd::scalar::rx_butterfly_runs(e0.data(), e1.data(), len, 0.8, -0.6);
    std::vector<double> g0 = base;
    std::vector<double> g1 = base1;
    simd::rx_butterfly_runs(g0.data(), g1.data(), len, 0.8, -0.6);
    EXPECT_EQ(g0, e0) << "rx_butterfly_runs p0 " << simd::isa_name(isa);
    EXPECT_EQ(g1, e1) << "rx_butterfly_runs p1 " << simd::isa_name(isa);

    if (len % 2 == 0) {
      expect = base;
      simd::scalar::rx_interleaved_pairs(expect.data(), len, 0.8, -0.6);
      got = base;
      simd::rx_interleaved_pairs(got.data(), len, 0.8, -0.6);
      EXPECT_EQ(got, expect) << "rx_interleaved_pairs " << simd::isa_name(isa);
    }

    const double acc0 = 0.123456789;
    EXPECT_EQ(simd::sum_norms(acc0, base.data(), len),
              simd::scalar::sum_norms(acc0, base.data(), len))
        << "sum_norms " << simd::isa_name(isa);
    const std::vector<double> w = random_doubles(len, 3 + len);
    EXPECT_EQ(simd::sum_norms_weighted(acc0, base.data(), w.data(), len),
              simd::scalar::sum_norms_weighted(acc0, base.data(), w.data(),
                                               len))
        << "sum_norms_weighted " << simd::isa_name(isa);
    if (len >= 4) {
      const std::size_t q = len / 4;
      const double* p = base.data();
      EXPECT_EQ(simd::sum_norm_quads(acc0, p, p + 2 * q, p + 4 * q, p + 6 * q,
                                     q),
                simd::scalar::sum_norm_quads(acc0, p, p + 2 * q, p + 4 * q,
                                             p + 6 * q, q))
          << "sum_norm_quads " << simd::isa_name(isa);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, SimdPrimitiveParity,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 7, 8, 9, 16,
                                           33));

TEST(SimdDispatch, SetIsaClampsToSupport) {
  IsaGuard guard;
  const simd::Isa max = simd::max_supported_isa();
  EXPECT_EQ(simd::set_isa(simd::Isa::kAvx512),
            static_cast<int>(max) >= static_cast<int>(simd::Isa::kAvx512)
                ? simd::Isa::kAvx512
                : max);
  EXPECT_EQ(simd::set_isa(simd::Isa::kScalar), simd::Isa::kScalar);
  EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
}

TEST(SimdDispatch, IsaNamesAreStable) {
  EXPECT_STREQ(simd::isa_name(simd::Isa::kScalar), "scalar");
  EXPECT_STREQ(simd::isa_name(simd::Isa::kAvx2), "avx2");
  EXPECT_STREQ(simd::isa_name(simd::Isa::kAvx512), "avx512");
}

TEST(SimdDispatch, Mul16TableMatchesScalar) {
  IsaGuard guard;
  const std::vector<double> tbl = random_doubles(16, 5);
  const std::vector<double> base = random_doubles(16 * 9, 6);
  std::vector<double> expect = base;
  simd::scalar::mul_table16_blocks(expect.data(), 9, tbl.data());
  for (const simd::Isa isa : available_isas()) {
    ASSERT_EQ(simd::set_isa(isa), isa);
    std::vector<double> got = base;
    simd::mul_table16_blocks(got.data(), 9, tbl.data());
    EXPECT_EQ(got, expect) << "mul_table16_blocks " << simd::isa_name(isa);
  }
}

// The radix-4 fused primitives claim bit-identity with the one-level-at-a-
// time sweeps they replace. Pin that against the unfused scalar loops
// directly, for every backend.
TEST(SimdDispatch, FusedRadix4MatchesUnfusedLevelSweeps) {
  IsaGuard guard;
  const double c = 0.80114361554693371;  // cos/sin of an arbitrary angle
  const double s = 0.59847214410395655;
  for (int levels = 1; levels <= 7; ++levels) {
    const std::size_t blk = std::size_t{1} << levels;
    const std::vector<double> base = random_doubles(2 * blk, 17 + levels);
    // Unfused reference: level 0 via interleaved pairs, then one
    // butterfly sweep per level — the exact pre-radix-4 pass-1 loop.
    std::vector<double> expect = base;
    simd::scalar::rx_interleaved_pairs(expect.data(), blk, c, s);
    for (int q = 1; q < levels; ++q) {
      const std::size_t stride = std::size_t{1} << q;
      for (std::size_t b0 = 0; b0 < blk; b0 += 2 * stride) {
        simd::scalar::rx_butterfly_runs(expect.data() + 2 * b0,
                                        expect.data() + 2 * (b0 + stride),
                                        stride, c, s);
      }
    }
    for (const simd::Isa isa : available_isas()) {
      ASSERT_EQ(simd::set_isa(isa), isa);
      std::vector<double> got = base;
      simd::rx_block_levels(got.data(), levels, c, s);
      EXPECT_EQ(got, expect) << "rx_block_levels levels=" << levels << " "
                             << simd::isa_name(isa);
      if (levels >= 2) {
        std::vector<double> quad = base;
        simd::rx_quad01(quad.data(), blk, c, s);
        std::vector<double> quad_ref = base;
        simd::scalar::rx_quad01(quad_ref.data(), blk, c, s);
        EXPECT_EQ(quad, quad_ref) << "rx_quad01 " << simd::isa_name(isa);
      }
    }
  }
  // rx_butterfly2_runs against two sequential butterfly sweeps, per run
  // length (the pass-2 tile widths are multiples of 4; cover a tail too).
  for (const std::size_t len : {std::size_t{4}, std::size_t{8},
                                std::size_t{13}, std::size_t{256}}) {
    const std::vector<double> base = random_doubles(8 * len, 31 + len);
    std::vector<double> expect = base;
    double* e = expect.data();
    simd::scalar::rx_butterfly_runs(e, e + 2 * len, len, c, s);
    simd::scalar::rx_butterfly_runs(e + 4 * len, e + 6 * len, len, c, s);
    simd::scalar::rx_butterfly_runs(e, e + 4 * len, len, c, s);
    simd::scalar::rx_butterfly_runs(e + 2 * len, e + 6 * len, len, c, s);
    for (const simd::Isa isa : available_isas()) {
      ASSERT_EQ(simd::set_isa(isa), isa);
      std::vector<double> got = base;
      double* g = got.data();
      simd::rx_butterfly2_runs(g, g + 2 * len, g + 4 * len, g + 6 * len, len,
                               c, s);
      EXPECT_EQ(got, expect) << "rx_butterfly2_runs len=" << len << " "
                             << simd::isa_name(isa);
    }
  }
}

}  // namespace
}  // namespace qq::sim
