// Engine/concurrency microbenchmarks backing BENCH_engine.json: the
// before/after evidence for the cooperative-nested-parallelism +
// non-blocking-engine + workspace-reuse rework (ISSUE 3).
//
// Workloads:
//   skewed_batch    One ~20-qubit QAOA part among seven 10-qubit parts,
//                   run through WorkflowEngine on an 8-thread pool — the
//                   QAOA^2 shape where the old engine ground the big part
//                   on one core (nested kernels degraded to serial).
//   device_latency  Mixed batch where quantum tasks are latency (simulated
//                   QPU round-trips, i.e. sleeps) and classical tasks are
//                   CPU work. The old engine parked pool workers in
//                   Slots::acquire behind the quantum queue, starving the
//                   classical tasks; measurable even on one core.
//   nested_kernel   Throughput of a fused mixer layer (20 qubits) executed
//                   at top level vs inside an engine task — the direct
//                   measure of the inside_worker() serialization cliff.
//   alloc_churn     Bytes allocated per COBYLA objective evaluation during
//                   QaoaSolver::optimize (state-vector workspace reuse).
//   streamed_components
//                   Four component-like chains (quantum leaves -> classical
//                   merge -> quantum coarse solve) with skewed leaf counts,
//                   run once as per-level barriers (one submit-and-drain
//                   batch per level) and once as a dependency-streamed
//                   task graph on the persistent engine. Sleeps model
//                   device latency, so the overlap win is measurable even
//                   on one core; the coarse-before-last-leaf count proves
//                   cross-level overlap structurally.
//   qaoa2_streaming Real QAOA^2 on a 4-component graph through the
//                   streaming pipeline.
//
//   ./bench_micro_engine [--reps 5] [--threads 8] [--quick]
//
// Run with the same flags before and after an engine/pool change and
// record both in BENCH_engine.json (see README "Benchmarks").

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "engine_batch.hpp"
#include "qaoa/qaoa.hpp"
#include "qaoa2/qaoa2.hpp"
#include "qgraph/generators.hpp"
#include "sched/engine.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

// ---------------------------------------------------------------------------
// Allocation accounting: every operator new in the process is counted, so
// the alloc_churn workload reports real allocation traffic, not a model.
namespace {
std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<std::uint64_t> g_alloc_calls{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using qq::sched::EngineOptions;
using qq::sched::ResourceKind;
using qq::sched::Task;
using qq::sched::WorkflowEngine;

double median_of(std::vector<double> xs) { return qq::util::median(xs); }

/// Fixed-iteration CPU burn (not wall-calibrated, so the work is identical
/// across engine versions); returns a value to defeat DCE.
double cpu_burn(std::uint64_t iters) {
  double x = 1.0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x = x * 1.0000001 + 1e-9;
    if (x > 2.0) x -= 1.0;
  }
  return x;
}

/// Iterations per millisecond, measured once so the device_latency workload
/// can size its classical tasks relative to the quantum sleeps.
std::uint64_t calibrate_iters_per_ms() {
  const std::uint64_t probe = 4'000'000;
  qq::util::Timer t;
  volatile double sink = cpu_burn(probe);
  (void)sink;
  const double ms = std::max(1e-3, t.millis());
  return static_cast<std::uint64_t>(static_cast<double>(probe) / ms);
}

// ------------------------------------------------------------ skewed batch --
struct SkewedResult {
  double wall_s = 0.0;
  double busy_s = 0.0;
  double big_cut = 0.0;
};

SkewedResult run_skewed_batch(int reps, int budget) {
  qq::util::Rng rng(17);
  const auto big = qq::graph::erdos_renyi(20, 0.3, rng);
  std::vector<qq::graph::Graph> small;
  for (int i = 0; i < 7; ++i) {
    small.push_back(qq::graph::erdos_renyi(10, 0.4, rng));
  }
  qq::qaoa::QaoaOptions qopts;
  qopts.layers = 2;
  qopts.max_iterations = budget;
  qopts.shots = 256;

  SkewedResult out;
  std::vector<double> walls;
  for (int rep = 0; rep < reps; ++rep) {
    WorkflowEngine engine(EngineOptions{2, 4});
    std::vector<qq::qaoa::QaoaResult> results(1 + small.size());
    std::vector<Task> tasks;
    tasks.push_back({ResourceKind::kQuantum, [&] {
                       qq::qaoa::QaoaOptions o = qopts;
                       o.seed = 1;
                       results[0] = qq::qaoa::solve_qaoa(big, o);
                     }});
    for (std::size_t i = 0; i < small.size(); ++i) {
      tasks.push_back({ResourceKind::kQuantum, [&, i] {
                         qq::qaoa::QaoaOptions o = qopts;
                         o.seed = 2 + static_cast<std::uint64_t>(i);
                         results[1 + i] = qq::qaoa::solve_qaoa(small[i], o);
                       }});
    }
    qq::util::Timer timer;
    const qq::bench::BatchTimes batch =
        qq::bench::run_tasks(engine, std::move(tasks));
    walls.push_back(timer.seconds());
    out.busy_s = batch.busy_seconds;
    out.big_cut = results[0].cut.value;
  }
  out.wall_s = median_of(walls);
  return out;
}

// --------------------------------------------------------- device latency --
struct LatencyResult {
  double wall_s = 0.0;
  double quantum_makespan_lb_s = 0.0;  ///< sleeps / quantum_slots
  double classical_cpu_s = 0.0;        ///< total classical CPU demand
};

LatencyResult run_device_latency(int reps, std::uint64_t iters_per_ms) {
  // 100 quantum tasks of 10 ms simulated device latency on ONE device slot
  // -> 1.0 s quantum makespan, and a quantum queue far longer than the
  // pool. Classical CPU demand ~= 1.0 s total, submitted AFTER the quantum
  // tasks (the qaoa2 fan-out pushes per part, so a kind runs back-to-back).
  // A non-blocking engine overlaps the two phases (~1.0 s wall); a blocking
  // engine parks every pool worker behind the quantum queue until it
  // drains, serializing the phases (~2.0 s wall) — the "tasks beyond the
  // slot count park threads that could be helping" pathology, measurable
  // even on one core because sleeping tasks do not consume CPU.
  constexpr int kQuantumTasks = 100;
  constexpr int kClassicalTasks = 10;
  constexpr auto kDeviceLatency = std::chrono::milliseconds(10);
  const std::uint64_t classical_iters = iters_per_ms * 100;

  LatencyResult out;
  out.quantum_makespan_lb_s = kQuantumTasks * 0.010 / 1.0;
  out.classical_cpu_s = kClassicalTasks * 0.100;
  std::vector<double> walls;
  std::vector<double> sinks(kClassicalTasks, 0.0);  // one slot per task
  for (int rep = 0; rep < reps; ++rep) {
    WorkflowEngine engine(EngineOptions{1, 4});
    std::vector<Task> tasks;
    for (int i = 0; i < kQuantumTasks; ++i) {
      tasks.push_back({ResourceKind::kQuantum, [kDeviceLatency] {
                         std::this_thread::sleep_for(kDeviceLatency);
                       }});
    }
    for (int i = 0; i < kClassicalTasks; ++i) {
      tasks.push_back({ResourceKind::kClassical, [&sinks, i, classical_iters] {
                         sinks[static_cast<std::size_t>(i)] +=
                             cpu_burn(classical_iters);
                       }});
    }
    qq::util::Timer timer;
    qq::bench::run_tasks(engine, std::move(tasks));
    walls.push_back(timer.seconds());
  }
  volatile double consume = 0.0;
  for (const double s : sinks) consume = consume + s;
  out.wall_s = median_of(walls);
  return out;
}

// ---------------------------------------------------------- nested kernel --
struct NestedResult {
  double top_level_ms = 0.0;  ///< fused mixer layer at 20 qubits, top level
  double in_task_ms = 0.0;    ///< same kernel inside an engine task
  /// Pool chunk tasks executed per in-task layer: 0 means the nested kernel
  /// ran serially (the pre-fix cliff); > 0 means it split across the pool.
  double chunks_per_nested_layer = 0.0;
};

NestedResult run_nested_kernel(int reps, int layers) {
  NestedResult out;
  qq::sim::StateVector sv = qq::sim::StateVector::plus_state(20);

  std::vector<double> top, nested;
  for (int rep = 0; rep < reps; ++rep) {
    qq::util::Timer t;
    for (int l = 0; l < layers; ++l) sv.apply_rx_layer(0.3);
    top.push_back(t.millis() / layers);
  }
  const std::uint64_t chunks_before =
      qq::util::ThreadPool::chunk_tasks_executed();
  for (int rep = 0; rep < reps; ++rep) {
    WorkflowEngine engine(EngineOptions{1, 1});
    double ms = 0.0;
    std::vector<Task> tasks;
    tasks.push_back({ResourceKind::kQuantum, [&] {
                       qq::util::Timer t;
                       for (int l = 0; l < layers; ++l) sv.apply_rx_layer(0.3);
                       ms = t.millis() / layers;
                     }});
    qq::bench::run_tasks(engine, std::move(tasks));
    nested.push_back(ms);
  }
  out.chunks_per_nested_layer =
      static_cast<double>(qq::util::ThreadPool::chunk_tasks_executed() -
                          chunks_before) /
      (static_cast<double>(reps) * layers);
  out.top_level_ms = median_of(top);
  out.in_task_ms = median_of(nested);
  return out;
}

// ----------------------------------------------------- streamed components --
struct StreamedResult {
  double barrier_wall_s = 0.0;
  double streaming_wall_s = 0.0;
  /// Coarse tasks that STARTED before the last leaf task ended — always 0
  /// under per-level barriers, > 0 once levels stream.
  int overlapped_coarse = 0;
  int tasks = 0;
};

StreamedResult run_streamed_components(int reps) {
  using qq::sched::TaskHandle;
  // Chain c: leaves[c] quantum leaves (8 ms device latency), one classical
  // merge (20 ms — the phase that idles the quantum slots at a level
  // barrier), one quantum coarse solve (12 ms). Chain 0 is the skewed slow
  // component.
  const std::vector<int> leaves = {12, 2, 2, 2};
  constexpr auto kLeafLatency = std::chrono::milliseconds(8);
  constexpr auto kMergeLatency = std::chrono::milliseconds(20);
  constexpr auto kCoarseLatency = std::chrono::milliseconds(12);
  auto sleep_task = [](std::chrono::milliseconds ms, qq::sched::ResourceKind k) {
    return qq::sched::Task{k, [ms] { std::this_thread::sleep_for(ms); }};
  };
  const qq::sched::EngineOptions opts{2, 2};

  StreamedResult out;
  std::vector<double> barrier_walls, streaming_walls;
  for (int rep = 0; rep < reps; ++rep) {
    // Level-barrier baseline: the pre-streaming driver's shape — one
    // batch per level across ALL components.
    {
      WorkflowEngine engine(opts);
      qq::util::Timer timer;
      std::vector<Task> level0;
      const int max_leaves = *std::max_element(leaves.begin(), leaves.end());
      for (int i = 0; i < max_leaves; ++i) {
        for (const int n : leaves) {
          if (i < n) {
            level0.push_back(sleep_task(kLeafLatency, ResourceKind::kQuantum));
          }
        }
      }
      qq::bench::run_tasks(engine, std::move(level0));
      std::vector<Task> merges;
      for (std::size_t c = 0; c < leaves.size(); ++c) {
        merges.push_back(sleep_task(kMergeLatency, ResourceKind::kClassical));
      }
      qq::bench::run_tasks(engine, std::move(merges));
      std::vector<Task> coarse;
      for (std::size_t c = 0; c < leaves.size(); ++c) {
        coarse.push_back(sleep_task(kCoarseLatency, ResourceKind::kQuantum));
      }
      qq::bench::run_tasks(engine, std::move(coarse));
      barrier_walls.push_back(timer.seconds());
    }
    // Streaming: the same chains as a dependency graph on one engine.
    {
      WorkflowEngine engine(opts);
      qq::util::Timer timer;
      // Leaves interleave across chains (the pipeline submits component
      // roots together, so no chain's leaves monopolize the front of the
      // ready queue), exactly like the barrier baseline above.
      std::vector<std::vector<TaskHandle>> chain_leaves(leaves.size());
      const int max_leaves = *std::max_element(leaves.begin(), leaves.end());
      for (int i = 0; i < max_leaves; ++i) {
        for (std::size_t c = 0; c < leaves.size(); ++c) {
          if (i < leaves[c]) {
            chain_leaves[c].push_back(engine.submit(
                sleep_task(kLeafLatency, ResourceKind::kQuantum)));
          }
        }
      }
      std::vector<TaskHandle> leaf_handles;
      std::vector<TaskHandle> coarse_handles;
      for (std::size_t c = 0; c < leaves.size(); ++c) {
        leaf_handles.insert(leaf_handles.end(), chain_leaves[c].begin(),
                            chain_leaves[c].end());
        const TaskHandle merge =
            engine.submit(sleep_task(kMergeLatency, ResourceKind::kClassical),
                          chain_leaves[c]);
        coarse_handles.push_back(engine.submit(
            sleep_task(kCoarseLatency, ResourceKind::kQuantum), {merge}));
      }
      engine.drain();
      streaming_walls.push_back(timer.seconds());
      if (rep == 0) {
        double last_leaf_end = 0.0;
        for (const TaskHandle h : leaf_handles) {
          last_leaf_end = std::max(last_leaf_end, engine.timing(h).end_s);
        }
        for (const TaskHandle h : coarse_handles) {
          if (engine.timing(h).start_s < last_leaf_end) ++out.overlapped_coarse;
        }
        out.tasks = static_cast<int>(engine.stats().completed);
      }
    }
  }
  out.barrier_wall_s = median_of(barrier_walls);
  out.streaming_wall_s = median_of(streaming_walls);
  return out;
}

// ------------------------------------------------------------ qaoa2 stream --
struct PipelineResult {
  double wall_s = 0.0;
  double cut = 0.0;
  int components = 0;
  int engine_tasks = 0;
};

PipelineResult run_qaoa2_streaming(int reps, int budget) {
  // Four components with skewed sizes: one 36-node blob that needs two
  // levels plus three 12-node blobs that finish early and stream their
  // coarse levels while the big one is still solving.
  qq::util::Rng rng(41);
  std::vector<qq::graph::Graph> blobs;
  blobs.push_back(qq::graph::erdos_renyi(64, 0.15, rng));
  for (int i = 0; i < 3; ++i) {
    blobs.push_back(qq::graph::erdos_renyi(18, 0.3, rng));
  }
  int total = 0;
  for (const auto& b : blobs) total += b.num_nodes();
  qq::graph::Graph g(static_cast<qq::graph::NodeId>(total));
  int offset = 0;
  for (const auto& b : blobs) {
    for (const qq::graph::Edge& e : b.edges()) {
      g.add_edge(e.u + offset, e.v + offset, e.w);
    }
    offset += b.num_nodes();
  }

  qq::qaoa2::Qaoa2Options opts;
  opts.max_qubits = 14;
  opts.sub_solver_spec =
      "qaoa:p=2,iters=" + std::to_string(budget) + ",shots=256";
  opts.merge_solver_spec = "gw";
  opts.seed = 43;
  opts.engine = qq::sched::EngineOptions{2, 4};

  PipelineResult out;
  std::vector<double> walls;
  for (int rep = 0; rep < reps; ++rep) {
    qq::util::Timer timer;
    const auto r = qq::qaoa2::solve_qaoa2(g, opts);
    walls.push_back(timer.seconds());
    out.cut = r.cut.value;
    out.components = r.components;
    out.engine_tasks = r.engine_tasks;
  }
  out.wall_s = median_of(walls);
  return out;
}

// ------------------------------------------------------------ alloc churn --
struct AllocResult {
  double bytes_per_eval = 0.0;
  double allocs_per_eval = 0.0;
  double solve_s = 0.0;
  int evals = 0;
};

AllocResult run_alloc_churn(int budget) {
  qq::util::Rng rng(23);
  const auto g = qq::graph::erdos_renyi(16, 0.3, rng);
  qq::qaoa::QaoaSolver solver(g);
  qq::qaoa::QaoaOptions qopts;
  qopts.layers = 3;
  qopts.max_iterations = budget;
  qopts.shots = 512;

  (void)solver.optimize(qopts);  // warm up (cut table already built)
  const std::uint64_t bytes0 = g_alloc_bytes.load();
  const std::uint64_t calls0 = g_alloc_calls.load();
  qq::util::Timer timer;
  const auto result = solver.optimize(qopts);
  AllocResult out;
  out.solve_s = timer.seconds();
  out.evals = result.evaluations;
  const double evals = std::max(1, result.evaluations);
  out.bytes_per_eval =
      static_cast<double>(g_alloc_bytes.load() - bytes0) / evals;
  out.allocs_per_eval =
      static_cast<double>(g_alloc_calls.load() - calls0) / evals;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const qq::util::Args args(argc, argv);
  const int threads = args.get_int("threads", 8);
  const bool quick = args.has("quick");
  const int reps = args.get_int("reps", quick ? 1 : 5);
  // The pool reads QQ_THREADS at first use; set it before anything touches
  // the global pool so the bench actually runs at the requested width.
  if (!std::getenv("QQ_THREADS")) {
    setenv("QQ_THREADS", std::to_string(threads).c_str(), 1);
  }
  const std::size_t pool_size = qq::util::ThreadPool::global().size();
  const std::uint64_t iters_per_ms = calibrate_iters_per_ms();

  std::printf("=== engine/concurrency microbench (pool=%zu, reps=%d) ===\n\n",
              pool_size, reps);

  const SkewedResult skew = run_skewed_batch(reps, quick ? 6 : 15);
  std::printf("skewed_batch     wall %.3f s   busy %.3f s   big-part cut %.1f\n",
              skew.wall_s, skew.busy_s, skew.big_cut);

  const LatencyResult lat = run_device_latency(reps, iters_per_ms);
  std::printf("device_latency   wall %.3f s   (quantum lower bound %.3f s, "
              "classical cpu %.3f s)\n",
              lat.wall_s, lat.quantum_makespan_lb_s, lat.classical_cpu_s);

  const NestedResult nest = run_nested_kernel(reps, quick ? 2 : 6);
  std::printf("nested_kernel    top-level %.2f ms/layer   in-task %.2f "
              "ms/layer   ratio %.2f   chunks/nested-layer %.1f\n",
              nest.top_level_ms, nest.in_task_ms,
              nest.top_level_ms > 0 ? nest.in_task_ms / nest.top_level_ms
                                    : 0.0,
              nest.chunks_per_nested_layer);

  const StreamedResult stream = run_streamed_components(reps);
  std::printf("streamed_comps   barrier %.3f s   streaming %.3f s   "
              "speedup %.2f   overlapped-coarse %d/%d   tasks %d\n",
              stream.barrier_wall_s, stream.streaming_wall_s,
              stream.streaming_wall_s > 0
                  ? stream.barrier_wall_s / stream.streaming_wall_s
                  : 0.0,
              stream.overlapped_coarse, 4, stream.tasks);

  const PipelineResult pipe = run_qaoa2_streaming(reps, quick ? 6 : 40);
  std::printf("qaoa2_streaming  wall %.3f s   cut %.1f   components %d   "
              "engine tasks %d\n",
              pipe.wall_s, pipe.cut, pipe.components, pipe.engine_tasks);

  const AllocResult alloc = run_alloc_churn(quick ? 8 : 30);
  std::printf("alloc_churn      %.0f bytes/eval   %.1f allocs/eval   "
              "(%d evals, %.3f s)\n",
              alloc.bytes_per_eval, alloc.allocs_per_eval, alloc.evals,
              alloc.solve_s);

  std::printf("\nrecord these numbers (with pool size and flags) in "
              "BENCH_engine.json before/after engine changes.\n");
  return 0;
}
