// Tests for the cache-blocked / distribution-emulating state vector:
// bit-exact agreement with the flat simulator across block counts on
// random QAOA-shaped circuits (RX mixers, RZZ cost gates), and the
// communication accounting rules of the Doi-Horii scheme (diagonal gates
// are free; non-diagonal gates on global qubits move the whole state).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "qsim/blocked.hpp"
#include "qsim/measure.hpp"
#include "qsim/simd.hpp"
#include "test_isa.hpp"
#include "util/rng.hpp"

namespace qq::sim {
namespace {

void expect_matches_flat(const BlockedStateVector& blocked,
                         const StateVector& flat, double tol = 1e-12) {
  const StateVector gathered = blocked.to_statevector();
  ASSERT_EQ(gathered.size(), flat.size());
  for (std::size_t i = 0; i < flat.size(); ++i) {
    EXPECT_NEAR(std::abs(gathered.data()[i] - flat.data()[i]), 0.0, tol)
        << "amplitude " << i;
  }
}

TEST(Blocked, ConstructionAndValidation) {
  BlockedStateVector sv(6, 2);
  EXPECT_EQ(sv.num_blocks(), 4u);
  EXPECT_EQ(sv.num_qubits(), 6);
  EXPECT_THROW(BlockedStateVector(4, 5), std::invalid_argument);
  EXPECT_THROW(BlockedStateVector(4, -1), std::invalid_argument);
  EXPECT_THROW(BlockedStateVector(-1, 0), std::invalid_argument);
}

TEST(Blocked, InitialStateIsZeroKet) {
  const BlockedStateVector sv(5, 2);
  const StateVector flat(5);
  expect_matches_flat(sv, flat);
}

TEST(Blocked, PlusStateMatches) {
  BlockedStateVector sv(6, 3);
  sv.set_plus_state();
  expect_matches_flat(sv, StateVector::plus_state(6));
}

class BlockedEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(BlockedEquivalence, RandomCircuitMatchesFlatSimulator) {
  const int block_bits = GetParam();
  const int n = 8;
  util::Rng rng(static_cast<std::uint64_t>(block_bits) * 131 + 7);
  BlockedStateVector blocked(n, block_bits);
  blocked.set_plus_state();
  StateVector flat = StateVector::plus_state(n);

  for (int step = 0; step < 60; ++step) {
    const int q = util::uniform_int(rng, 0, n - 1);
    int q2 = util::uniform_int(rng, 0, n - 1);
    while (q2 == q) q2 = util::uniform_int(rng, 0, n - 1);
    const double t = util::uniform(rng, -2.0, 2.0);
    if (util::uniform_int(rng, 0, 1) == 0) {
      blocked.apply_rx(q, t);
      flat.apply_rx(q, t);
    } else {
      blocked.apply_rzz(q, q2, t);
      flat.apply_rzz(q, q2, t);
    }
  }
  expect_matches_flat(blocked, flat, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(BlockCounts, BlockedEquivalence,
                         ::testing::Values(0, 1, 2, 4, 8));

// The blocked simulator's diagonal kernel streams through the same
// dispatched simd:: primitive as the flat one, and its RX kernel uses the
// flat generic 2x2 expression — so blocked-vs-flat parity
// is EXACT (bit-for-bit), and must stay exact under every SIMD backend.
TEST(Blocked, SimdBackendsMatchFlatBitForBit) {
  const qq::testing::IsaGuard guard;
  const int n = 8;
  for (const simd::Isa isa : qq::testing::available_isas()) {
    ASSERT_EQ(simd::set_isa(isa), isa);
    for (const int block_bits : {0, 2, 8}) {
      util::Rng rng(static_cast<std::uint64_t>(block_bits) * 131 + 7);
      BlockedStateVector blocked(n, block_bits);
      blocked.set_plus_state();
      StateVector flat = StateVector::plus_state(n);
      for (int step = 0; step < 60; ++step) {
        const int q = util::uniform_int(rng, 0, n - 1);
        int q2 = util::uniform_int(rng, 0, n - 1);
        while (q2 == q) q2 = util::uniform_int(rng, 0, n - 1);
        const double t = util::uniform(rng, -2.0, 2.0);
        if (util::uniform_int(rng, 0, 1) == 0) {
          blocked.apply_rx(q, t);
          flat.apply_rx(q, t);
        } else {
          blocked.apply_rzz(q, q2, t);
          flat.apply_rzz(q, q2, t);
        }
      }
      EXPECT_TRUE(qq::testing::bits_equal(blocked.to_statevector(), flat))
          << "block_bits=" << block_bits << " under " << simd::isa_name(isa);
    }
  }
}

TEST(Blocked, DiagonalGatesAreCommunicationFree) {
  BlockedStateVector sv(8, 3);
  sv.set_plus_state();
  sv.apply_rzz(6, 7, 0.3);   // both global, diagonal
  sv.apply_rzz(0, 7, 0.2);   // mixed, diagonal
  sv.apply_rzz(1, 2, 0.4);   // both local
  EXPECT_EQ(sv.stats().amps_exchanged, 0u);
  EXPECT_EQ(sv.stats().global_gates, 0u);
  EXPECT_EQ(sv.stats().local_gates, 3u);
}

TEST(Blocked, LocalGatesAreCommunicationFree) {
  BlockedStateVector sv(8, 3);  // local qubits 0..4
  sv.set_plus_state();
  sv.apply_rx(0, 0.3);
  sv.apply_rx(4, 0.5);  // highest local qubit
  EXPECT_EQ(sv.stats().amps_exchanged, 0u);
  EXPECT_EQ(sv.stats().local_gates, 2u);
}

TEST(Blocked, GlobalNonDiagonalGateMovesWholeState) {
  BlockedStateVector sv(8, 3);
  sv.set_plus_state();
  sv.apply_rx(7, 0.5);  // global, non-diagonal
  EXPECT_EQ(sv.stats().global_gates, 1u);
  EXPECT_EQ(sv.stats().amps_exchanged, std::uint64_t{1} << 8);
}

TEST(Blocked, QaoaLayerCommunicationProfile) {
  // A full QAOA layer on the blocked simulator: the cost layer (all RZZ)
  // is communication-free; only the mixer's RX on the k global qubits
  // moves data. This is exactly why distributed QAOA simulation scales.
  const int n = 10, k = 2;
  BlockedStateVector sv(n, k);
  sv.set_plus_state();
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) sv.apply_rzz(u, v, 0.1);
  }
  EXPECT_EQ(sv.stats().amps_exchanged, 0u);
  for (int q = 0; q < n; ++q) sv.apply_rx(q, 0.5);
  EXPECT_EQ(sv.stats().global_gates, static_cast<std::uint64_t>(k));
  EXPECT_EQ(sv.stats().amps_exchanged,
            static_cast<std::uint64_t>(k) * (std::uint64_t{1} << n));
}

TEST(Blocked, ErrorsOnBadQubits) {
  BlockedStateVector sv(4, 1);
  EXPECT_THROW(sv.apply_rx(4, 0.1), std::out_of_range);
  EXPECT_THROW(sv.apply_rx(-1, 0.1), std::out_of_range);
  EXPECT_THROW(sv.apply_rzz(2, 2, 0.1), std::invalid_argument);
  EXPECT_THROW(sv.apply_rzz(0, 4, 0.1), std::invalid_argument);
}

}  // namespace
}  // namespace qq::sim
