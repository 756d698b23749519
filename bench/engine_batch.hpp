#pragma once
// Run a batch of independent tasks on a WorkflowEngine and wait for all of
// them: submit each, drain, then derive the batch's wall, busy and
// coordination times from the engine's per-task timings and counters.
// Shared by the benches that time plain task batches (bench_fig2_coordinator,
// bench_scaling, bench_micro_engine).

#include <algorithm>
#include <cstddef>
#include <vector>

#include "sched/engine.hpp"
#include "util/thread_pool.hpp"

namespace qq::bench {

struct BatchTimes {
  double wall_seconds = 0.0;
  /// Σ task service times (inside `work`).
  double busy_seconds = 0.0;
  /// Wall time minus the ideal parallel drain time of the busy work
  /// (sched::ideal_parallel_seconds) — the Fig. 2 coordination overhead.
  double coordination_seconds = 0.0;
};

/// Runs `tasks` to completion on `engine`; rethrows the first task error.
inline BatchTimes run_tasks(sched::WorkflowEngine& engine,
                            std::vector<sched::Task> tasks) {
  const sched::EngineStats before = engine.stats();
  const double t0 = engine.now();
  std::vector<sched::TaskHandle> handles;
  handles.reserve(tasks.size());
  for (sched::Task& task : tasks) {
    handles.push_back(engine.submit(std::move(task)));
  }
  engine.drain();

  BatchTimes out;
  out.wall_seconds = engine.now() - t0;
  for (const sched::TaskHandle h : handles) {
    const sched::TaskTiming t = engine.timing(h);
    out.busy_seconds += t.end_s - t.start_s;
  }
  const sched::EngineStats after = engine.stats();
  const double ideal = sched::ideal_parallel_seconds(
      after.busy_quantum_seconds - before.busy_quantum_seconds,
      after.busy_classical_seconds - before.busy_classical_seconds,
      after.quantum_tasks - before.quantum_tasks,
      after.classical_tasks - before.classical_tasks, engine.options(),
      engine.pool().size());
  out.coordination_seconds = std::max(0.0, out.wall_seconds - ideal);
  return out;
}

}  // namespace qq::bench
