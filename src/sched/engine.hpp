#pragma once
// Threaded coordinator/worker engine — the in-process analogue of the
// paper's Fig. 2 distribution scheme: "a coordinator executed on a
// dedicated MPI rank handles the partitioning and collection of results",
// while worker ranks consume either quantum (simulated device) or classical
// resources.
//
// Slot semantics mirror a SLURM allocation: at most `quantum_slots` tasks
// tagged kQuantum run concurrently (the simulated QPUs) and at most
// `classical_slots` tasks tagged kClassical (the CPU partition).
//
// The engine schedules INDEPENDENT tasks and holds only live ones:
// `submit(task)` queues a task in its resource kind's ready queue, the
// completion of a task hands its slot to the next ready task of that kind,
// and a task's bookkeeping is freed the moment it settles — so one engine
// (and one thread pool) can stay alive across an entire QAOA^2 solve, or a
// service's whole lifetime, without growing. A caller that needs a join
// (the QAOA^2 pipeline's per-level merge) counts settles down in
// `Task::on_settled` and submits the follow-up task itself.
//
// The engine is NON-BLOCKING: at most `slots` tasks of a kind are handed to
// the thread pool at a time; no pool thread ever parks waiting for a slot,
// and a draining caller help-runs this engine's dispatched tasks plus
// bounded pool chunk work, so a drain issued from inside a pool worker — or
// on a pool of one — still completes.
//
// A batch is a sequence of `submit` calls followed by `drain`; the
// cumulative `stats` report what ran.
//
// MULTI-TENANCY (the service layer's substrate): tasks carry a fair-share
// CLASS and the RequestContext of the request they serve. Classes
// (add_class) are weighted queues feeding each kind's slot queue —
// dispatch is start-time fair queuing over per-(class, kind) virtual time,
// so a weight-3 tenant drains ~3x the work of a weight-1 tenant under
// contention, while the default class 0 alone is a plain FIFO per kind
// (modeled on ClickHouse's workload resource manager). cancel(context)
// settles every queued task carrying that context at once; a task
// submitted after its context was cancelled settles on arrival, and
// running tasks finish their current task (cooperative preemption at task
// boundaries). `Task::on_settled` fires exactly once per task, outside the
// engine lock, for async completion tracking; drain() waits until it has
// returned.

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace qq::util {
class RequestContext;
class ThreadPool;
}  // namespace qq::util

namespace qq::sched {

enum class ResourceKind { kQuantum, kClassical };

/// Fair-share workload class id; 0 is the always-present default class
/// (weight 1).
using ClassId = std::uint32_t;

struct FairClassConfig {
  std::string name = "default";
  /// Relative share of each kind's slots under contention; must be > 0.
  double weight = 1.0;
};

/// Per-class counters (class_stats() snapshot).
struct FairClassStats {
  ClassId id = 0;
  std::string name;
  double weight = 1.0;
  std::size_t dispatched = 0;  ///< tasks handed a slot
  std::size_t completed = 0;   ///< tasks that ran (including failed)
  std::size_t cancelled = 0;   ///< tasks cancelled before running
  std::size_t ready = 0;       ///< tasks ready now, waiting for a slot
  double busy_seconds = 0.0;   ///< Σ service time inside `work`
  /// Σ per-task (start - ready) — the class's slot/queue wait.
  double queue_wait_seconds = 0.0;
};

struct EngineOptions {
  int quantum_slots = 2;
  int classical_slots = 4;
  /// Pool the tasks execute on; nullptr selects ThreadPool::global().
  /// Injectable so tests can pin a deterministic width regardless of
  /// QQ_THREADS.
  util::ThreadPool* pool = nullptr;
};

struct Task {
  ResourceKind kind = ResourceKind::kClassical;
  /// The payload; its return value is opaque to the engine.
  std::function<void()> work;
  /// Fair-share class (add_class); 0 = the default class, weight 1.
  ClassId fair_class = 0;
  /// The request this task serves, the key cancel() selects by; null =
  /// none. Must outlive the task.
  const util::RequestContext* context = nullptr;
  /// Invoked exactly once after the task settles — ran to completion,
  /// failed, or was cancelled before running — with its error (null on
  /// success). Runs OUTSIDE the engine lock on whichever thread settled the
  /// task; it may submit further tasks but must not block.
  std::function<void(std::exception_ptr)> on_settled;
};

/// Cumulative engine counters since construction; snapshot via
/// WorkflowEngine::stats().
struct EngineStats {
  double busy_quantum_seconds = 0.0;
  double busy_classical_seconds = 0.0;
  /// Σ per-task (start - ready) across every executed task.
  double queue_wait_seconds = 0.0;
  std::size_t submitted = 0;
  std::size_t completed = 0;  ///< ran to completion, including failed tasks
  std::size_t cancelled = 0;  ///< never ran: its context was cancelled
  std::size_t quantum_tasks = 0;
  std::size_t classical_tasks = 0;
  // Instantaneous gauges (the service's admission/backlog signal).
  std::size_t ready_quantum = 0;      ///< ready now, waiting for a slot
  std::size_t ready_classical = 0;
  std::size_t inflight_quantum = 0;   ///< holding a slot (dispatched/running)
  std::size_t inflight_classical = 0;
};

/// Ideal parallel drain time for the given per-kind busy totals, computed
/// per resource kind actually present: a kind's busy time cannot drain
/// faster than its own slots (or the pool) allow, and the total cannot
/// drain faster than the in-use slots / pool permit. Kinds with no tasks
/// contribute nothing — their slots are unusable and must not dilute the
/// estimate.
double ideal_parallel_seconds(double busy_quantum, double busy_classical,
                              std::size_t quantum_tasks,
                              std::size_t classical_tasks,
                              const EngineOptions& options,
                              std::size_t pool_width);

class WorkflowEngine {
 public:
  explicit WorkflowEngine(const EngineOptions& options);
  /// Drains every submitted task (cooperatively, without rethrowing) so no
  /// task closure outlives the frames it captures.
  ~WorkflowEngine();

  WorkflowEngine(const WorkflowEngine&) = delete;
  WorkflowEngine& operator=(const WorkflowEngine&) = delete;

  const EngineOptions& options() const noexcept { return options_; }
  /// The pool tasks execute on (options().pool or the global pool).
  util::ThreadPool& pool() const noexcept;

  /// The engine clock (seconds since construction). Thread-safe.
  double now() const noexcept;

  /// Register a fair-share class. Throws std::invalid_argument for a
  /// non-positive weight. Thread-safe; classes are never removed.
  ClassId add_class(FairClassConfig config);
  std::vector<FairClassStats> class_stats() const;

  /// Settle every queued task carrying `context` as cancelled, at once,
  /// with a CancelledError; their settle callbacks run on this thread
  /// before it returns. Tasks already holding a slot finish their current
  /// task. Returns the number of tasks cancelled. Call it after
  /// `context.cancel()`, so a task submitted concurrently either is queued
  /// here or cancels on arrival.
  std::size_t cancel(const util::RequestContext& context);

  /// Donate this thread until `done()` holds: run this engine's dispatched
  /// tasks and bounded pool chunk work, nap briefly when neither is
  /// available. `done` runs under the engine lock, so it must read only
  /// atomics (no locks, no engine calls); it is re-checked whenever a task
  /// or settle callback finishes.
  void help_until(const std::function<bool()>& done);

  /// Queue `task` in its kind's ready queue (behind the ready tasks of its
  /// class), or settle it as cancelled on arrival when its context has
  /// cancel_requested(). Thread-safe; callable from inside a running task
  /// or an `on_settled` callback.
  void submit(Task task);

  /// Cooperatively help-run until every submitted task has settled and
  /// its settle callback has returned. A task counts as unfinished until
  /// then, so a follow-up task a callback submits is counted before its
  /// parent settles and drain waits for it too. A settle callback must
  /// therefore not drain its own engine. The first error observed since
  /// the last drain is rethrown — unless `error_out` is non-null, in which
  /// case it is stored there.
  void drain(std::exception_ptr* error_out = nullptr);

  EngineStats stats() const;

 private:
  struct Impl;

  EngineOptions options_;
  std::shared_ptr<Impl> impl_;
};

}  // namespace qq::sched
