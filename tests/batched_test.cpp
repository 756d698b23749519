// BatchedStateVector parity: every lane of a batched evaluation must be
// BIT-FOR-BIT identical to an independent flat StateVector run with that
// lane's angles — the contract that lets QaoaSolver's lockstep restarts
// replay sequential trajectories exactly. Checked for B in {1, 3, 8} under
// every SIMD backend the machine supports, plus a multi-chunk size so the
// deterministic reduction plan is exercised across chunk seams.

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "qsim/batched.hpp"
#include "qsim/measure.hpp"
#include "qsim/simd.hpp"
#include "qsim/statevector.hpp"
#include "test_isa.hpp"
#include "util/rng.hpp"

namespace qq::sim {
namespace {

using testing::available_isas;
using testing::IsaGuard;

struct Angles {
  std::vector<double> scales;  ///< per-lane gamma, one per layer entry
  std::vector<double> thetas;  ///< per-lane mixer angle
};

/// Deterministic per-lane angle sets, distinct across lanes and layers.
std::vector<Angles> make_layers(int batch, int layers, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Angles> out(layers);
  for (Angles& layer : out) {
    layer.scales.resize(batch);
    layer.thetas.resize(batch);
    for (int b = 0; b < batch; ++b) {
      layer.scales[b] = util::uniform(rng, -1.5, 1.5);
      layer.thetas[b] = util::uniform(rng, -2.5, 2.5);
    }
  }
  return out;
}

std::vector<double> make_values(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> values(n);
  for (double& v : values) v = util::uniform(rng, -4.0, 4.0);
  return values;
}

class BatchedLaneParity
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(BatchedLaneParity, LanesMatchIndependentFlatRunsBitForBit) {
  const int n = GetParam().first;
  const int batch = GetParam().second;
  const int layers = 3;
  IsaGuard guard;

  const std::vector<double> values = make_values(std::size_t{1} << n, 11);
  const std::vector<Angles> circuit = make_layers(batch, layers, 77);

  for (const simd::Isa isa : available_isas()) {
    ASSERT_EQ(simd::set_isa(isa), isa);

    BatchedStateVector batched(n, batch);
    batched.reset_to_plus();
    for (const Angles& layer : circuit) {
      batched.apply_diagonal_phase(values, layer.scales);
      batched.apply_rx_layer(layer.thetas);
    }
    const std::vector<double> batched_exp =
        batched.expectation_diagonal(values);
    ASSERT_EQ(batched_exp.size(), static_cast<std::size_t>(batch));

    for (int b = 0; b < batch; ++b) {
      StateVector flat(n);
      flat.reset_to_plus();
      for (const Angles& layer : circuit) {
        flat.apply_diagonal_phase(values, layer.scales[b]);
        flat.apply_rx_layer(layer.thetas[b]);
      }
      const StateVector lane = batched.lane_state(b);
      ASSERT_EQ(lane.size(), flat.size());
      EXPECT_EQ(std::memcmp(lane.data().data(), flat.data().data(),
                            flat.size() * sizeof(Amplitude)),
                0)
          << "lane " << b << " diverged under " << simd::isa_name(isa);
      // Per-lane reduction must match the flat deterministic chunk fold.
      EXPECT_EQ(batched_exp[b], expectation_diagonal(flat, values))
          << "lane " << b << " expectation under " << simd::isa_name(isa);
      // Spot-check the direct amplitude accessor against the lane copy.
      const BasisState probe = (std::size_t{1} << n) - 1;
      EXPECT_EQ(batched.amplitude(b, probe), flat.data()[probe]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BatchedLaneParity,
    ::testing::Values(std::make_pair(1, 1), std::make_pair(1, 8),
                      std::make_pair(3, 3), std::make_pair(6, 1),
                      std::make_pair(6, 8), std::make_pair(10, 3),
                      std::make_pair(10, 8),
                      // 2^15 amplitudes = two reduction chunks: the per-lane
                      // partial fold must still match flat's chunk plan.
                      std::make_pair(15, 3)));

TEST(BatchedStateVector, ResetToPlusMatchesFlat) {
  IsaGuard guard;
  for (const simd::Isa isa : available_isas()) {
    ASSERT_EQ(simd::set_isa(isa), isa);
    BatchedStateVector batched(4, 3);
    batched.reset_to_plus();
    StateVector flat(4);
    flat.reset_to_plus();
    for (int b = 0; b < 3; ++b) {
      const StateVector lane = batched.lane_state(b);
      EXPECT_EQ(std::memcmp(lane.data().data(), flat.data().data(),
                            flat.size() * sizeof(Amplitude)),
                0)
          << simd::isa_name(isa);
    }
  }
}

TEST(BatchedStateVector, ConstructionStartsInZeroState) {
  BatchedStateVector batched(3, 2);
  for (int b = 0; b < 2; ++b) {
    EXPECT_EQ(batched.amplitude(b, 0), Amplitude(1.0, 0.0));
    for (BasisState s = 1; s < 8; ++s) {
      EXPECT_EQ(batched.amplitude(b, s), Amplitude(0.0, 0.0));
    }
  }
}

TEST(BatchedStateVector, ValidatesArguments) {
  EXPECT_THROW(BatchedStateVector(-1, 1), std::invalid_argument);
  EXPECT_THROW(BatchedStateVector(3, 0), std::invalid_argument);

  BatchedStateVector batched(3, 2);
  EXPECT_THROW(batched.apply_rx_layer({0.1}), std::invalid_argument);
  EXPECT_THROW(batched.apply_diagonal_phase(std::vector<double>(8, 0.0),
                                            {0.1, 0.2, 0.3}),
               std::invalid_argument);
  EXPECT_THROW(
      batched.apply_diagonal_phase(std::vector<double>(4, 0.0), {0.1, 0.2}),
      std::invalid_argument);
  EXPECT_THROW(batched.lane_state(2), std::out_of_range);
  EXPECT_THROW(batched.lane_state(-1), std::out_of_range);
  EXPECT_THROW(batched.amplitude(0, 8), std::out_of_range);
}

}  // namespace
}  // namespace qq::sim
