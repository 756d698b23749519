#pragma once
// Run a batch of independent tasks on a WorkflowEngine and wait for all of
// them: submit each, drain, then derive the batch's wall, busy and
// coordination times from the deltas of the engine's cumulative counters.
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
  for (sched::Task& task : tasks) engine.submit(std::move(task));
  engine.drain();

  BatchTimes out;
  out.wall_seconds = engine.now() - t0;
  const sched::EngineStats after = engine.stats();
  const double busy_quantum =
      after.busy_quantum_seconds - before.busy_quantum_seconds;
  const double busy_classical =
      after.busy_classical_seconds - before.busy_classical_seconds;
  out.busy_seconds = busy_quantum + busy_classical;
  const double ideal = sched::ideal_parallel_seconds(
      busy_quantum, busy_classical,
      after.quantum_tasks - before.quantum_tasks,
      after.classical_tasks - before.classical_tasks, engine.options(),
      engine.pool().size());
  out.coordination_seconds = std::max(0.0, out.wall_seconds - ideal);
  return out;
}

}  // namespace qq::bench
