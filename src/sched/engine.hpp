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
// The engine is PERSISTENT and DEPENDENCY-AWARE: `submit(task, deps)`
// returns a TaskHandle immediately; a task enters its resource kind's ready
// queue once every dependency has completed, and completion of a task hands
// its slot to the next ready task of that kind AND enqueues any successors
// that just became ready — the coordinator thread never mediates a
// dependency edge. One engine (and one thread pool) can therefore stay
// alive across an entire QAOA^2 solve, streaming tasks of many components
// and recursion levels through the same slot budget.
//
// The engine is NON-BLOCKING: at most `slots` tasks of a kind are handed to
// the thread pool at a time; no pool thread ever parks waiting for a slot,
// and a waiting caller (`wait`/`drain`) help-runs this engine's dispatched
// tasks plus bounded pool chunk work, so waits issued from inside a pool
// worker — or on a pool of one — still complete.
//
// A batch of independent tasks is a sequence of `submit` calls followed by
// `drain`; per-task `timing` and the cumulative `stats` report what ran.
//
// MULTI-TENANCY (the service layer's substrate): tasks carry a fair-share
// CLASS and a cancellation GROUP. Classes (add_class) are weighted queues
// feeding each kind's slot queue — dispatch is start-time fair queuing over
// per-(class, kind) virtual time, so a weight-3 tenant drains ~3x the work
// of a weight-1 tenant under contention, while the default class 0 alone
// reproduces the classic FIFO/depth-first order exactly (modeled on
// ClickHouse's workload resource manager). Groups (open_group /
// cancel_group) scope one request's tasks: cancel_group cancels every
// queued member through the same transitive-cancel machinery a failed
// dependency uses, marks the group so late submissions cancel on arrival,
// and lets running members finish their current task (cooperative
// preemption at task-graph boundaries). `Task::on_settled` fires exactly
// once per task, outside the engine lock, for async completion tracking.

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace qq::util {
class ThreadPool;
}  // namespace qq::util

namespace qq::sched {

enum class ResourceKind { kQuantum, kClassical };

/// Fair-share workload class id; 0 is the always-present default class
/// (weight 1).
using ClassId = std::uint32_t;

/// Cancellation-group id; kNoGroup means "not in any group".
using GroupId = std::uint64_t;
inline constexpr GroupId kNoGroup = 0;

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
  /// Cancellation group (open_group); kNoGroup = none.
  GroupId group = kNoGroup;
  /// Invoked exactly once after the task settles — ran to completion,
  /// failed, or was cancelled before running — with its error (null on
  /// success). Runs OUTSIDE the engine lock on whichever thread settled the
  /// task; it may submit further tasks but must not block.
  std::function<void(std::exception_ptr)> on_settled;
};

/// Opaque reference to a submitted task; valid for the engine's lifetime.
struct TaskHandle {
  static constexpr std::size_t kInvalid = static_cast<std::size_t>(-1);
  std::size_t id = kInvalid;
  bool valid() const noexcept { return id != kInvalid; }
};

struct TaskTiming {
  std::size_t task = 0;
  ResourceKind kind = ResourceKind::kClassical;
  double submit_s = 0.0;  ///< entry into the engine's ready queue (for a
                          ///< dependent task: the moment its last dependency
                          ///< completed), relative to engine construction
  double start_s = 0.0;   ///< `work` began executing
  double end_s = 0.0;     ///< `work` returned (or threw)
  double wait_s = 0.0;    ///< start_s - submit_s: slot wait + pool queueing
  /// `work` ran and exited via an exception. Disjoint from `cancelled`: a
  /// task is either run (and possibly failed) or cancelled, never both.
  bool failed = false;
  /// Never ran: a (transitive) dependency failed or its group was
  /// cancelled.
  bool cancelled = false;
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
  std::size_t cancelled = 0;  ///< skipped: dependency failure or group cancel
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

  /// The engine clock (seconds since construction) — the time base of every
  /// TaskTiming. Thread-safe.
  double now() const noexcept;

  /// Register a fair-share class. Throws std::invalid_argument for a
  /// non-positive weight. Thread-safe; classes are never removed.
  ClassId add_class(FairClassConfig config);
  std::vector<FairClassStats> class_stats() const;

  /// Open a cancellation group for one request's tasks.
  GroupId open_group();

  /// Cancel every not-yet-running member of `group` (transitively, through
  /// the same machinery as dependency-failure cancellation) and mark the
  /// group so tasks submitted into it afterwards cancel on arrival. Members
  /// already running finish their current task; their successors cancel.
  /// Returns the number of tasks newly cancelled. Unknown or closed groups
  /// return 0.
  std::size_t cancel_group(GroupId group);

  bool group_cancelled(GroupId group) const;

  /// Drop a group's bookkeeping once the owning request has settled (its
  /// member list grows with every submission until closed).
  void close_group(GroupId group);

  /// Claim and inline-run one dispatched task, if any — lets an external
  /// waiter donate its thread without entering wait()/drain(). Returns
  /// false when nothing was claimable.
  bool try_run_one();

  /// Enqueue `task` to run once every task in `deps` has completed
  /// successfully. A task with no (remaining) dependencies enters its
  /// kind's ready queue immediately. If any dependency failed or was
  /// cancelled, the task is cancelled instead of run, transitively.
  /// Thread-safe; callable from inside a running task (dynamic task
  /// graphs).
  TaskHandle submit(Task task, const std::vector<TaskHandle>& deps = {});

  /// True once the task has run (or been cancelled).
  bool finished(TaskHandle handle) const;

  /// Cooperatively help-run engine tasks until `handle` completes, then
  /// rethrow its error if it failed (a cancelled task rethrows the
  /// dependency's error).
  void wait(TaskHandle handle);

  /// Cooperatively help-run until every submitted task has completed. The
  /// first error observed since the last drain is rethrown — unless
  /// `error_out` is non-null, in which case it is stored there.
  void drain(std::exception_ptr* error_out = nullptr);

  /// Timing of a completed (or cancelled) task, relative to engine
  /// construction.
  TaskTiming timing(TaskHandle handle) const;

  EngineStats stats() const;

 private:
  struct Impl;

  EngineOptions options_;
  std::shared_ptr<Impl> impl_;
};

}  // namespace qq::sched
