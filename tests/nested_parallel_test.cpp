// Regression suite for the QAOA^2 serialization bug (ISSUE 3): a QAOA
// sub-solve dispatched through WorkflowEngine runs ON a pool worker, and
// the old chunk planner collapsed every nested parallel_for/parallel_reduce
// to one serial chunk whenever it ran on a pool worker — so the
// pair-indexed and fused-mixer kernels ran single-threaded exactly when
// QAOA^2 used them.
//
// This binary supplies its own main() so it can pin QQ_THREADS=4 BEFORE the
// global pool (which the state-vector kernels run on) is first touched;
// ctest registers it like any other gtest binary.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "maxcut/cut.hpp"
#include "qaoa/qaoa.hpp"
#include "qaoa2/qaoa2.hpp"
#include "qgraph/generators.hpp"
#include "qsim/kernel_detail.hpp"
#include "qsim/measure.hpp"
#include "sched/engine.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace qq {
namespace {

// 2^16 amplitudes at kParallelGrain = 2^14 -> 4 planned chunks per kernel
// sweep: big enough that every kernel splits, small enough to stay fast.
constexpr int kQubits = 16;

/// Submit every task, then drain: the engine runs them respecting its slot
/// caps and help-runs from the calling thread.
void run_tasks(sched::WorkflowEngine& engine, std::vector<sched::Task> tasks) {
  for (sched::Task& task : tasks) engine.submit(std::move(task));
  engine.drain();
}

graph::Graph test_graph() {
  util::Rng rng(99);
  return graph::erdos_renyi(kQubits, 0.25, rng);
}

circuit::QaoaAngles test_angles() {
  circuit::QaoaAngles angles;
  angles.gammas = {0.37, 0.22};
  angles.betas = {0.61, 0.18};
  return angles;
}

TEST(NestedParallel, GlobalPoolIsMultiThreaded) {
  // main() pins QQ_THREADS=4; if this fails the rest of the suite is
  // measuring nothing.
  ASSERT_EQ(util::ThreadPool::global().size(), 4u);
}

TEST(NestedParallel, EngineSubSolveSplitsNestedKernels) {
  const graph::Graph g = test_graph();
  const qaoa::QaoaSolver solver(g);
  const circuit::QaoaAngles angles = test_angles();

  // One engine task evaluating <H_C>: state preparation (diagonal sweep +
  // fused mixer) and the expectation reduction all nest inside a pool
  // worker. Count the chunk tasks the pool executes while it runs.
  sched::WorkflowEngine engine(sched::EngineOptions{1, 1});
  double through_engine = 0.0;
  const std::uint64_t chunks_before = util::ThreadPool::chunk_tasks_executed();
  std::vector<sched::Task> tasks;
  tasks.push_back({sched::ResourceKind::kQuantum, [&] {
                     through_engine = solver.expectation(angles);
                   }});
  run_tasks(engine, std::move(tasks));
  const std::uint64_t chunks_after = util::ThreadPool::chunk_tasks_executed();

  // The state vector has 2^16 amplitudes and the sweeps plan >= 4 chunks
  // each; with the old serial-inside-a-worker cliff this delta was ZERO.
  const std::uint64_t delta = chunks_after - chunks_before;
  EXPECT_GE(delta, 4u) << "nested kernels did not split inside the engine";

  // Determinism pin: the chunk plan ignores pool size and nesting, so the
  // nested result must equal the top-level one bit for bit — which in turn
  // equals the single-thread (QQ_THREADS=1) result by the same invariance.
  const double direct = solver.expectation(angles);
  EXPECT_EQ(through_engine, direct);
}

TEST(NestedParallel, EngineQaoaOptimizeMatchesDirectBitForBit) {
  const graph::Graph g = test_graph();
  qaoa::QaoaOptions opts;
  opts.layers = 2;
  opts.max_iterations = 8;
  opts.shots = 128;
  opts.seed = 7;

  qaoa::QaoaResult through_engine;
  sched::WorkflowEngine engine(sched::EngineOptions{2, 2});
  std::vector<sched::Task> tasks;
  tasks.push_back({sched::ResourceKind::kQuantum, [&] {
                     through_engine = qaoa::solve_qaoa(g, opts);
                   }});
  run_tasks(engine, std::move(tasks));

  const qaoa::QaoaResult direct = qaoa::solve_qaoa(g, opts);
  // The full hybrid loop — COBYLA trajectory, sampling, extraction — must
  // be unaffected by running nested on the pool.
  EXPECT_EQ(through_engine.expectation, direct.expectation);
  EXPECT_EQ(through_engine.cut.value, direct.cut.value);
  EXPECT_EQ(through_engine.best_sampled_value, direct.best_sampled_value);
  EXPECT_EQ(through_engine.evaluations, direct.evaluations);
  ASSERT_EQ(through_engine.parameters.size(), direct.parameters.size());
  for (std::size_t i = 0; i < direct.parameters.size(); ++i) {
    EXPECT_EQ(through_engine.parameters[i], direct.parameters[i]);
  }
  EXPECT_EQ(through_engine.cut.assignment, direct.cut.assignment);
}

TEST(NestedParallel, Qaoa2GoldenPinWithNestedKernels) {
  // Full QAOA^2 with QAOA sub-solves on the pinned 4-thread pool: the
  // streaming pipeline interleaves components and levels arbitrarily and
  // nests every state-vector kernel inside engine tasks, yet the cut must
  // equal the pin captured from the level-barrier recursive pipeline.
  util::Rng rng(101);
  graph::Graph g(40);
  // Two components of different depth-to-solve (24 + 16 nodes).
  const graph::Graph a = graph::erdos_renyi(24, 0.2, rng);
  for (const graph::Edge& e : a.edges()) g.add_edge(e.u, e.v, e.w);
  const graph::Graph b = graph::erdos_renyi(16, 0.3, rng);
  for (const graph::Edge& e : b.edges()) g.add_edge(e.u + 24, e.v + 24, e.w);

  qaoa2::Qaoa2Options opts;
  opts.max_qubits = 6;
  opts.sub_solver_spec = "qaoa:p=2,iters=12,shots=128";
  opts.merge_solver_spec = "gw";
  opts.seed = 57;
  opts.engine = sched::EngineOptions{2, 2};
  const qaoa2::Qaoa2Result r = qaoa2::solve_qaoa2(g, opts);

  EXPECT_EQ(r.cut.value, 71.0);
  EXPECT_EQ(maxcut::bits_from_assignment(r.cut.assignment), 0x511ea8d84fULL);
  EXPECT_EQ(r.components, 2);
  EXPECT_EQ(r.levels, 3);
  EXPECT_EQ(r.subgraphs_total, 19);
  EXPECT_EQ(r.quantum_solves, 15);
  EXPECT_EQ(r.classical_solves, 4);
  struct LevelPin {
    int level, num_parts;
    double level_cut;
  };
  const std::vector<LevelPin> levels = {{0, 15, 71}, {1, 3, 7}, {2, 1, 0}};
  ASSERT_EQ(r.level_stats.size(), levels.size());
  for (std::size_t i = 0; i < levels.size(); ++i) {
    EXPECT_EQ(r.level_stats[i].level, levels[i].level);
    EXPECT_EQ(r.level_stats[i].num_parts, levels[i].num_parts);
    EXPECT_EQ(r.level_stats[i].level_cut, levels[i].level_cut);
  }
  // Partition, extraction and merge run as engine tasks too: 24 pipeline
  // tasks plus the planning task.
  EXPECT_EQ(r.engine_tasks, 25);
}

TEST(NestedParallel, SampleStreamIdenticalUnderNesting) {
  // The sample_counts CDF is built over plan_chunks boundaries; since the
  // plan ignores nesting, the shot stream at a fixed seed is identical
  // whether drawn on the main thread or inside an engine task.
  const graph::Graph g = test_graph();
  const qaoa::QaoaSolver solver(g);
  const sim::StateVector sv = solver.state(test_angles());

  util::Rng rng_direct(1234);
  const auto direct = sim::sample_counts(sv, 64, rng_direct);

  std::vector<sim::BasisState> nested;
  sched::WorkflowEngine engine(sched::EngineOptions{1, 1});
  std::vector<sched::Task> tasks;
  tasks.push_back({sched::ResourceKind::kQuantum, [&] {
                     util::Rng rng_nested(1234);
                     nested = sim::sample_counts(sv, 64, rng_nested);
                   }});
  run_tasks(engine, std::move(tasks));
  EXPECT_EQ(nested, direct);
}

/// One chunk seen by a parallel_for_chunks body: its bounds and thread.
struct ChunkCall {
  std::size_t lo, hi;
  std::thread::id thread;
};

/// The chunks parallel_for_chunks hands its body over [0, 20000) at grain
/// 1000, sorted by lower bound (chunk order, whatever the schedule).
std::vector<ChunkCall> record_chunks() {
  util::Mutex mutex;
  std::vector<ChunkCall> calls;
  util::parallel_for_chunks(
      0, 20000,
      [&](std::size_t lo, std::size_t hi) {
        util::MutexLock lock(mutex);
        calls.push_back({lo, hi, std::this_thread::get_id()});
      },
      1000);
  std::sort(calls.begin(), calls.end(),
            [](const ChunkCall& a, const ChunkCall& b) { return a.lo < b.lo; });
  return calls;
}

/// A floating-point sum whose value depends on the grouping of its terms.
double chunked_sum() {
  return util::parallel_reduce(
      std::size_t{0}, std::size_t{50000}, 0.0,
      [](std::size_t lo, std::size_t hi) {
        double partial = 0.0;
        for (std::size_t i = lo; i < hi; ++i) {
          partial += std::sin(static_cast<double>(i)) / (1.0 + i);
        }
        return partial;
      },
      [](double acc, double partial) { return acc + partial; }, 1000);
}

TEST(InlineChunkScope, RunsThePlannedChunksOnTheCallingThread) {
  // Without the scope the 4-thread pool runs chunks 1.. as chunk tasks.
  const std::uint64_t before_split = util::ThreadPool::chunk_tasks_executed();
  const std::vector<ChunkCall> split = record_chunks();
  EXPECT_GT(util::ThreadPool::chunk_tasks_executed(), before_split);

  std::vector<ChunkCall> inlined;
  std::vector<std::thread::id> reduce_threads;
  const std::uint64_t before = util::ThreadPool::chunk_tasks_executed();
  {
    const util::InlineChunkScope scope;
    EXPECT_TRUE(util::InlineChunkScope::active());
    inlined = record_chunks();
    util::parallel_reduce(
        std::size_t{0}, std::size_t{20000}, 0,
        [&](std::size_t, std::size_t) {
          reduce_threads.push_back(std::this_thread::get_id());
          return 1;
        },
        [](int acc, int partial) { return acc + partial; }, 1000);
  }
  EXPECT_EQ(util::ThreadPool::chunk_tasks_executed(), before);
  EXPECT_FALSE(util::InlineChunkScope::active());

  // Same chunk plan as the split run: 20 chunks of 1000.
  const util::detail::ChunkPlan plan = util::detail::plan_chunks(20000, 1000);
  ASSERT_EQ(inlined.size(), plan.count);
  ASSERT_EQ(split.size(), plan.count);
  ASSERT_EQ(reduce_threads.size(), plan.count);
  for (std::size_t c = 0; c < plan.count; ++c) {
    EXPECT_EQ(inlined[c].lo, split[c].lo);
    EXPECT_EQ(inlined[c].hi, split[c].hi);
    EXPECT_EQ(inlined[c].thread, std::this_thread::get_id());
    EXPECT_EQ(reduce_threads[c], std::this_thread::get_id());
  }
}

TEST(InlineChunkScope, FloatingPointReduceIsBitIdentical) {
  const double split = chunked_sum();
  double inlined = 0.0;
  {
    const util::InlineChunkScope scope;
    inlined = chunked_sum();
  }
  EXPECT_EQ(std::memcmp(&split, &inlined, sizeof split), 0)
      << split << " vs " << inlined;
}

TEST(InlineChunkScope, RestoresThePreviousStateWhenABodyThrows) {
  const auto throwing_region = [] {
    const util::InlineChunkScope scope;
    util::parallel_for_chunks(
        0, 20000,
        [](std::size_t lo, std::size_t) {
          if (lo > 0) throw std::runtime_error("chunk failed");
        },
        1000);
  };
  EXPECT_THROW(throwing_region(), std::runtime_error);
  EXPECT_FALSE(util::InlineChunkScope::active());
  {
    // A nested scope that unwinds leaves the outer one open.
    const util::InlineChunkScope outer;
    EXPECT_THROW(throwing_region(), std::runtime_error);
    EXPECT_TRUE(util::InlineChunkScope::active());
  }
  EXPECT_FALSE(util::InlineChunkScope::active());
  // The pool splits again after the unwinding.
  const std::uint64_t before = util::ThreadPool::chunk_tasks_executed();
  record_chunks();
  EXPECT_GT(util::ThreadPool::chunk_tasks_executed() - before, 0u);
}

}  // namespace
}  // namespace qq

int main(int argc, char** argv) {
  // Before ANY use of the global pool: the kernels must see a multi-thread
  // pool for the nested-splitting assertions to be meaningful.
  setenv("QQ_THREADS", "4", /*overwrite=*/1);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
