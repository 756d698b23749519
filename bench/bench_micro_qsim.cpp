// Micro-benchmarks of the state-vector simulator kernels: per-gate cost
// scaling with qubit count, the diagonal fast path, and shot sampling.

#include <benchmark/benchmark.h>

#include "qaoa/cost_table.hpp"
#include "qgraph/generators.hpp"
#include "qsim/batched.hpp"
#include "qsim/level_table.hpp"
#include "qsim/measure.hpp"
#include "qsim/statevector.hpp"
#include "util/rng.hpp"

namespace {

using qq::sim::BatchedStateVector;
using qq::sim::LevelTable;
using qq::sim::StateVector;

/// Cut table of an ER(n, 0.5) unit-weight graph: the QAOA leaf's cost
/// diagonal, with at most |E| + 1 distinct values.
std::vector<double> er_cut_table(int n) {
  qq::util::Rng rng(1);
  return qq::qaoa::build_cut_table(qq::graph::erdos_renyi(n, 0.5, rng));
}

/// Cut table of an ER(n, 0.5) graph with uniform [0, 1) weights: 2^(n-1)
/// distinct values, one per complementary pair z, ~z. The most levels a
/// cut table has, so the level sweep's worst case.
std::vector<double> er_real_cut_table(int n) {
  qq::util::Rng rng(1);
  return qq::qaoa::build_cut_table(qq::graph::erdos_renyi(
      n, 0.5, rng, qq::graph::WeightMode::kUniform01));
}

/// The random table of BM_DiagonalPhaseSweep: every value distinct.
std::vector<double> distinct_table(int n) {
  std::vector<double> table(std::size_t{1} << n);
  qq::util::Rng rng(1);
  for (double& v : table) v = qq::util::uniform(rng, 0.0, 10.0);
  return table;
}

void BM_ApplyH(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVector sv = StateVector::plus_state(n);
  int q = 0;
  for (auto _ : state) {
    sv.apply_h(q);
    q = (q + 1) % n;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sv.size()));
}
BENCHMARK(BM_ApplyH)->Arg(10)->Arg(14)->Arg(18)->Arg(20);

void BM_ApplyRx(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVector sv = StateVector::plus_state(n);
  int q = 0;
  for (auto _ : state) {
    sv.apply_rx(q, 0.3);
    q = (q + 1) % n;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sv.size()));
}
BENCHMARK(BM_ApplyRx)->Arg(10)->Arg(14)->Arg(18)->Arg(20);

void BM_ApplyRz(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVector sv = StateVector::plus_state(n);
  int q = 0;
  for (auto _ : state) {
    sv.apply_rz(q, 0.3);
    q = (q + 1) % n;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sv.size()));
}
BENCHMARK(BM_ApplyRz)->Arg(10)->Arg(14)->Arg(18)->Arg(20)->Arg(22);

// One whole QAOA mixer layer. Fused: a few cache-blocked passes
// (apply_rx_layer). Unfused: the old n separate apply_rx sweeps — kept as
// the in-binary "before" for BENCH_qsim.json.
void BM_MixerLayerFused(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVector sv = StateVector::plus_state(n);
  for (auto _ : state) {
    sv.apply_rx_layer(0.3);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sv.size()) * n);
}
BENCHMARK(BM_MixerLayerFused)->Arg(10)->Arg(14)->Arg(18)->Arg(20)->Arg(22);

void BM_MixerLayerUnfused(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVector sv = StateVector::plus_state(n);
  for (auto _ : state) {
    for (int q = 0; q < n; ++q) sv.apply_rx(q, 0.3);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sv.size()) * n);
}
BENCHMARK(BM_MixerLayerUnfused)->Arg(10)->Arg(14)->Arg(18)->Arg(20)->Arg(22);

void BM_ApplyCx(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVector sv = StateVector::plus_state(n);
  int q = 0;
  for (auto _ : state) {
    sv.apply_cx(q, (q + 1) % n);
    q = (q + 1) % n;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sv.size()));
}
BENCHMARK(BM_ApplyCx)->Arg(10)->Arg(14)->Arg(18)->Arg(20)->Arg(22);

void BM_ApplyRzz(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVector sv = StateVector::plus_state(n);
  int q = 0;
  for (auto _ : state) {
    sv.apply_rzz(q, (q + 1) % n, 0.4);
    q = (q + 1) % n;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sv.size()));
}
BENCHMARK(BM_ApplyRzz)->Arg(10)->Arg(14)->Arg(18)->Arg(20)->Arg(22);

void BM_DiagonalPhaseSweep(benchmark::State& state) {
  // One whole QAOA cost layer as a single sweep — the fast path that makes
  // the grid searches feasible.
  const int n = static_cast<int>(state.range(0));
  StateVector sv = StateVector::plus_state(n);
  const std::vector<double> table = distinct_table(n);
  for (auto _ : state) {
    sv.apply_diagonal_phase(table, 0.37);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sv.size()));
}
BENCHMARK(BM_DiagonalPhaseSweep)->Arg(10)->Arg(14)->Arg(18)->Arg(20);

// The same cost layer from a level table: one sincos per distinct cut value
// and a table lookup per amplitude. The dense sweep's cost does not depend
// on the table's values, so BM_DiagonalPhaseSweep is its "before".
void BM_PhaseLevelSweep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVector sv = StateVector::plus_state(n);
  const LevelTable levels(er_cut_table(n));
  for (auto _ : state) {
    sv.apply_diagonal_phase(levels, 0.37);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sv.size()));
}
BENCHMARK(BM_PhaseLevelSweep)->Arg(10)->Arg(14)->Arg(18)->Arg(20);

// Worst case: a random-real-weight cut table, one level per pair z, ~z.
void BM_PhaseLevelSweepRealWeights(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVector sv = StateVector::plus_state(n);
  const LevelTable levels(er_real_cut_table(n));
  for (auto _ : state) {
    sv.apply_diagonal_phase(levels, 0.37);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sv.size()));
}
BENCHMARK(BM_PhaseLevelSweepRealWeights)->Arg(14)->Arg(18);

// The batched cost layer on an ER cut table, dense and from levels: the
// lockstep restart sweep that dominates multi-restart leaf solves.
void BM_BatchedDiagonalPhaseSweep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int batch = static_cast<int>(state.range(1));
  BatchedStateVector sv(n, batch);
  sv.reset_to_plus();
  const std::vector<double> table = er_cut_table(n);
  std::vector<double> scales(batch);
  for (int b = 0; b < batch; ++b) scales[b] = 0.31 + 0.01 * b;
  for (auto _ : state) {
    sv.apply_diagonal_phase(table, scales);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sv.size()) * batch);
}
BENCHMARK(BM_BatchedDiagonalPhaseSweep)
    ->ArgsProduct({{10, 14, 16}, {8, 16}});

void BM_BatchedPhaseLevelSweep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int batch = static_cast<int>(state.range(1));
  BatchedStateVector sv(n, batch);
  sv.reset_to_plus();
  const LevelTable levels(er_cut_table(n));
  std::vector<double> scales(batch);
  for (int b = 0; b < batch; ++b) scales[b] = 0.31 + 0.01 * b;
  for (auto _ : state) {
    sv.apply_diagonal_phase(levels, scales);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sv.size()) * batch);
}
BENCHMARK(BM_BatchedPhaseLevelSweep)->ArgsProduct({{10, 14, 16}, {8, 16}});

// One QAOA objective evaluation (cost layer + mixer layer + expectation)
// for B parameter sets at once through BatchedStateVector — the lockstep
// multi-restart hot loop. The unbatched twin below does the identical work
// as B independent flat sweeps; the ratio is the win from sharing each
// cut-table load and amplitude row across all B lanes.
// One QAOA layer plus the expectation, as the solver evaluates it: the cost
// layer from the level table of an ER(n, 0.5) unit-weight cut table, the
// fused mixer, and the expectation over the dense table. The plain rows run
// on the full 2^n-amplitude state; the Half rows on the flip-symmetric half
// QaoaSolver evaluates (2^(n-1) amplitudes, the half level table, the
// mirror butterfly and the mirror-order expectation), bit-for-bit the same
// values.
struct ObjectiveFixture {
  explicit ObjectiveFixture(int n)
      : table(er_cut_table(n)),
        levels(table),
        half_levels(table, table.size() / 2) {}
  std::vector<double> table;
  LevelTable levels;
  LevelTable half_levels;
};

std::vector<double> lane_angles(int batch, double base) {
  std::vector<double> out(static_cast<std::size_t>(batch));
  for (int b = 0; b < batch; ++b) {
    out[static_cast<std::size_t>(b)] = base + 0.01 * b;
  }
  return out;
}

void BM_BatchedQaoaObjective(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int batch = static_cast<int>(state.range(1));
  const ObjectiveFixture f(n);
  BatchedStateVector sv(n, batch);
  const std::vector<double> scales = lane_angles(batch, 0.31);
  const std::vector<double> thetas = lane_angles(batch, 0.23);
  sv.reset_to_plus();
  for (auto _ : state) {
    sv.apply_diagonal_phase(f.levels, scales);
    sv.apply_rx_layer(thetas);
    benchmark::DoNotOptimize(sv.expectation_diagonal(f.table));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.table.size()) * batch);
}
BENCHMARK(BM_BatchedQaoaObjective)
    ->Args({10, 8})
    ->Args({14, 8})
    ->Args({14, 16})
    ->Args({16, 8})
    ->Args({16, 16});

void BM_BatchedHalfQaoaObjective(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int batch = static_cast<int>(state.range(1));
  const ObjectiveFixture f(n);
  BatchedStateVector sv(n - 1, batch);
  const std::vector<double> scales = lane_angles(batch, 0.31);
  const std::vector<double> thetas = lane_angles(batch, 0.23);
  sv.reset_to_plus_half();
  for (auto _ : state) {
    sv.apply_diagonal_phase(f.half_levels, scales);
    sv.apply_rx_layer(thetas);
    sv.apply_rx_mirror(thetas);
    benchmark::DoNotOptimize(sv.expectation_diagonal_mirror(f.table));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.table.size()) * batch);
}
BENCHMARK(BM_BatchedHalfQaoaObjective)
    ->Args({10, 8})
    ->Args({14, 8})
    ->Args({14, 16})
    ->Args({16, 8})
    ->Args({16, 16});

void BM_UnbatchedQaoaObjective(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int batch = static_cast<int>(state.range(1));
  const ObjectiveFixture f(n);
  std::vector<StateVector> svs(static_cast<std::size_t>(batch),
                               StateVector::plus_state(n));
  for (auto _ : state) {
    for (int b = 0; b < batch; ++b) {
      StateVector& sv = svs[static_cast<std::size_t>(b)];
      sv.apply_diagonal_phase(f.levels, 0.31 + 0.01 * b);
      sv.apply_rx_layer(0.23 + 0.01 * b);
      benchmark::DoNotOptimize(qq::sim::expectation_diagonal(sv, f.table));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.table.size()) * batch);
}
BENCHMARK(BM_UnbatchedQaoaObjective)
    ->Args({10, 8})
    ->Args({14, 8})
    ->Args({14, 16})
    ->Args({16, 8})
    ->Args({16, 16});

void BM_UnbatchedHalfQaoaObjective(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int batch = static_cast<int>(state.range(1));
  const ObjectiveFixture f(n);
  std::vector<StateVector> svs(static_cast<std::size_t>(batch),
                               StateVector(n - 1));
  for (StateVector& sv : svs) sv.reset_to_plus_half();
  for (auto _ : state) {
    for (int b = 0; b < batch; ++b) {
      StateVector& sv = svs[static_cast<std::size_t>(b)];
      sv.apply_diagonal_phase(f.half_levels, 0.31 + 0.01 * b);
      sv.apply_rx_layer(0.23 + 0.01 * b);
      sv.apply_rx_mirror(0.23 + 0.01 * b);
      benchmark::DoNotOptimize(
          qq::sim::expectation_diagonal_mirror(sv, f.table));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.table.size()) * batch);
}
BENCHMARK(BM_UnbatchedHalfQaoaObjective)
    ->Args({10, 8})
    ->Args({14, 8})
    ->Args({14, 16})
    ->Args({16, 8})
    ->Args({16, 16});

// The batched mixer alone: B lane butterflies per amplitude pair on
// cache-hot rows vs B separate fused-layer sweeps.
void BM_BatchedMixerLayer(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int batch = static_cast<int>(state.range(1));
  BatchedStateVector sv(n, batch);
  sv.reset_to_plus();
  std::vector<double> thetas(batch);
  for (int b = 0; b < batch; ++b) thetas[b] = 0.3 + 0.01 * b;
  for (auto _ : state) {
    sv.apply_rx_layer(thetas);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sv.size()) * batch * n);
}
BENCHMARK(BM_BatchedMixerLayer)->Args({10, 8})->Args({14, 8})->Args({16, 8});

void BM_SampleShots(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVector sv = StateVector::plus_state(n);
  qq::util::Rng rng(2);
  for (auto _ : state) {
    auto shots = qq::sim::sample_counts(sv, 4096, rng);  // paper shot count
    benchmark::DoNotOptimize(shots);
  }
}
BENCHMARK(BM_SampleShots)->Arg(10)->Arg(14)->Arg(18);

void BM_ExpectationDiagonal(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVector sv = StateVector::plus_state(n);
  std::vector<double> table(sv.size(), 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qq::sim::expectation_diagonal(sv, table));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sv.size()));
}
BENCHMARK(BM_ExpectationDiagonal)->Arg(10)->Arg(14)->Arg(18)->Arg(20);

}  // namespace
