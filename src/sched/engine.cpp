#include "sched/engine.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <deque>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/cancellation.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace qq::sched {

namespace {
constexpr int kind_index(ResourceKind kind) noexcept {
  return kind == ResourceKind::kQuantum ? 0 : 1;
}

/// EWMA smoothing of per-class task cost (the virtual-time charge). New
/// observations get 20%: stable against one outlier, adapts within ~5
/// tasks.
constexpr double kCostEwmaAlpha = 0.2;
/// Cost estimate a class starts from before its first completion.
constexpr double kInitialCostEstimate = 1e-3;
}  // namespace

double ideal_parallel_seconds(double busy_quantum, double busy_classical,
                              std::size_t quantum_tasks,
                              std::size_t classical_tasks,
                              const EngineOptions& options,
                              std::size_t pool_width) {
  const double width =
      static_cast<double>(std::max<std::size_t>(std::size_t{1}, pool_width));
  const std::array<double, 2> busy = {busy_quantum, busy_classical};
  const std::array<std::size_t, 2> count = {quantum_tasks, classical_tasks};
  const std::array<int, 2> caps = {options.quantum_slots,
                                   options.classical_slots};
  double ideal = 0.0;
  double busy_used = 0.0;
  int slots_used = 0;
  for (int k = 0; k < 2; ++k) {
    if (count[k] == 0) continue;
    ideal = std::max(ideal, busy[k] / std::min<double>(caps[k], width));
    busy_used += busy[k];
    slots_used += caps[k];
  }
  if (slots_used > 0) {
    ideal = std::max(ideal, busy_used / std::min<double>(slots_used, width));
  }
  return ideal;
}

// The whole scheduling state lives behind a shared_ptr: pool wrappers keep
// it alive, so a wrapper whose task was already claimed (by the coordinator
// or a faster worker) degrades to a harmless no-op even if it is popped
// after the engine was destroyed. Task *closures* are a different matter —
// they reference caller frames — which is why the destructor drains.
struct WorkflowEngine::Impl {
  enum class Status : std::uint8_t {
    kReady,       ///< in a ready queue, waiting for a slot
    kDispatched,  ///< holds a slot, handed to the pool, claimable
    kRunning,     ///< claimed by a pool worker or a draining caller
  };

  /// A live task. Erased from `nodes` the moment it settles.
  struct Node {
    Task task;
    Status status = Status::kReady;
    double ready_s = 0.0;  ///< entry into the ready queue
  };

  /// One fair-share class: per-kind ready deque of live kReady ids + SFQ
  /// virtual time.
  struct ClassInfo {
    std::string name;
    double weight = 1.0;
    std::array<std::deque<std::size_t>, 2> ready;
    std::array<std::size_t, 2> running{{0, 0}};  ///< dispatched or running
    std::array<double, 2> vtime{{0.0, 0.0}};
    double ewma_cost = kInitialCostEstimate;
    std::size_t dispatched = 0;
    std::size_t completed = 0;
    std::size_t cancelled = 0;
    double busy_seconds = 0.0;
    double queue_wait = 0.0;
  };

  using SettledFn = std::function<void(std::exception_ptr)>;

  explicit Impl(const EngineOptions& options)
      : pool(options.pool != nullptr ? options.pool
                                     : &util::ThreadPool::global()),
        caps{options.quantum_slots, options.classical_slots} {
    classes.push_back(ClassInfo{});
    classes.back().name = "default";
  }

  double now() const noexcept { return clock.seconds(); }

  // ---- *_locked helpers: QQ_REQUIRES(mutex) makes the old implicit
  // "called under the lock" convention a compiler-checked contract --------

  /// The live node `id` if it has status `status`, else null (a missing id
  /// has settled).
  Node* find_locked(std::size_t id, Status status) QQ_REQUIRES(mutex) {
    const auto it = nodes.find(id);
    return it != nodes.end() && it->second.status == status ? &it->second
                                                            : nullptr;
  }

  /// Hand ready tasks of kind k to the pool while that kind has free slots,
  /// picking the backlogged class with the smallest virtual time (weighted
  /// fair share); with only the default class this degenerates to the
  /// classic FIFO pop. A task is only ever submitted once it holds its
  /// slot, so no pool thread can park in an acquire.
  void dispatch_locked(const std::shared_ptr<Impl>& self, int k)
      QQ_REQUIRES(mutex) {
    while (inflight[k] < caps[k]) {
      ClassInfo* best = nullptr;
      for (ClassInfo& cls : classes) {
        if (cls.ready[k].empty()) continue;
        if (best == nullptr || cls.vtime[k] < best->vtime[k]) best = &cls;
      }
      if (best == nullptr) break;
      const std::size_t id = best->ready[k].front();
      best->ready[k].pop_front();
      Node* node = find_locked(id, Status::kReady);
      ++best->running[k];
      ++best->dispatched;
      // Start-time fair queuing: the kind's clock advances to the start
      // tag of the dispatched task; the class pre-pays its estimated cost
      // scaled by weight (actual cost corrects the EWMA at completion).
      vclock[k] = best->vtime[k];
      best->vtime[k] +=
          std::max(best->ewma_cost, 1e-9) / std::max(best->weight, 1e-9);
      ++inflight[k];
      node->status = Status::kDispatched;
      // Pool workers claim through try_claim and never pop `dispatched`;
      // prune the ids they already claimed so the deque stays bounded by
      // the tasks in flight.
      while (!dispatched.empty() &&
             find_locked(dispatched.front(), Status::kDispatched) == nullptr) {
        dispatched.pop_front();
      }
      dispatched.push_back(id);
      pool->submit([self, id] {
        if (Node* claimed = self->try_claim(id)) {
          self->run_task(self, id, *claimed);
        }
      });
    }
  }

  /// Claim a dispatched task for execution. The returned reference stays
  /// valid outside the lock: unordered_map nodes never move, and the node
  /// is erased only by the run_task that executes it.
  Node* try_claim(std::size_t id) QQ_EXCLUDES(mutex) {
    util::MutexLock lock(mutex);
    Node* node = find_locked(id, Status::kDispatched);
    if (node != nullptr) node->status = Status::kRunning;
    return node;
  }

  /// Claim the oldest still-dispatched task for a caller that donates its
  /// thread (help_until). Returns null when nothing is claimable.
  Node* claim_next_locked(std::size_t& id) QQ_REQUIRES(mutex) {
    while (!dispatched.empty()) {
      id = dispatched.front();
      dispatched.pop_front();
      if (Node* node = find_locked(id, Status::kDispatched)) {
        node->status = Status::kRunning;
        return node;
      }
    }
    return nullptr;
  }

  /// Count a task that settles without running (its context was
  /// cancelled) and collect its on_settled for the caller to invoke after
  /// unlocking. The task stays unfinished until settle_finished.
  void count_cancelled_locked(Task& task, std::vector<SettledFn>& settled)
      QQ_REQUIRES(mutex) {
    ++cancelled;
    ++classes[task.fair_class].cancelled;
    if (task.on_settled) settled.push_back(std::move(task.on_settled));
  }

  /// Execute a claimed task (caller holds no lock; `node` was resolved
  /// under it) and do its completion bookkeeping: counters, slot handoff,
  /// erasing the node, the settle callback.
  void run_task(const std::shared_ptr<Impl>& self, std::size_t id, Node& node)
      QQ_EXCLUDES(mutex) {
    const double start = now();
    std::exception_ptr err;
    // A failing task must not abandon the batch while siblings still
    // reference caller frames; the error is delivered by drain() once
    // everything owed has settled. Its partial runtime is counted like any
    // other task's so the report stays accountable.
    try {
      node.task.work();
    } catch (...) {
      err = std::current_exception();
    }
    const double end = now();
    // Release the closure's captures outside the completion lock.
    std::function<void()> release = std::move(node.task.work);
    SettledFn settled = std::move(node.task.on_settled);
    {
      util::MutexLock lock(mutex);
      const int k = kind_index(node.task.kind);
      ClassInfo& cls = classes[node.task.fair_class];
      const double cost = end - start;
      const double wait = start - node.ready_s;
      busy[k] += cost;
      cls.busy_seconds += cost;
      cls.ewma_cost =
          (1.0 - kCostEwmaAlpha) * cls.ewma_cost + kCostEwmaAlpha * cost;
      queue_wait += wait;
      cls.queue_wait += wait;
      ++completed;
      ++cls.completed;
      --cls.running[k];
      if (err && !first_error) first_error = err;
      --inflight[k];
      nodes.erase(id);
      // Slot handoff: release this slot and dispatch the next ready task
      // of its kind.
      dispatch_locked(self, k);
    }
    cv.notify_all();
    // The settle callback runs outside the lock: it may submit follow-up
    // tasks or take service-level locks. The task stays unfinished until
    // the callback has returned, so drain() never returns under it, and a
    // follow-up it submits is counted before this task's decrement.
    if (settled) settled(err);
    settle_finished(1);
  }

  /// Count `n` tasks whose settle callbacks have returned as finished and
  /// wake drain().
  void settle_finished(std::size_t n) QQ_EXCLUDES(mutex) {
    {
      util::MutexLock lock(mutex);
      unfinished -= n;
    }
    cv.notify_all();
  }

  /// Cooperative wait: claim and inline-run THIS engine's dispatched tasks
  /// (which also guarantees progress when waiting from inside a pool worker
  /// or on a pool of one), help bounded kernel chunks from the pool's chunk
  /// queue, and otherwise nap briefly. Foreign coarse tasks are never
  /// adopted. `done` is evaluated with `mutex` held.
  void help_until(const std::shared_ptr<Impl>& self,
                  const std::function<bool()>& done) QQ_EXCLUDES(mutex) {
    util::MutexLock lock(mutex);
    while (!done()) {
      std::size_t id = 0;
      if (Node* mine = claim_next_locked(id)) {
        lock.unlock();
        run_task(self, id, *mine);
        lock.lock();
        continue;
      }
      lock.unlock();
      const bool helped = pool->try_help_chunk();
      lock.lock();
      // Predicate-free nap (CondVar has no predicate waits — the analysis
      // cannot see through the predicate closure); the outer loop re-checks
      // `done` under the lock after every wake.
      if (!helped && !done()) {
        cv.wait_for(lock, std::chrono::milliseconds(1));
      }
    }
  }

  mutable util::Mutex mutex;
  util::CondVar cv;
  util::Timer clock;  ///< engine-lifetime clock; all timings are relative
  util::ThreadPool* pool;
  std::array<int, 2> caps;
  /// Live tasks by id. A node-based map: element references survive
  /// rehashing, so a claimed task's Node& is mutated outside the lock
  /// (status kRunning fences it off); the analysis checks direct `nodes`
  /// accesses only.
  std::unordered_map<std::size_t, Node> nodes QQ_GUARDED_BY(mutex);
  std::size_t next_id QQ_GUARDED_BY(mutex) = 0;
  std::vector<ClassInfo> classes QQ_GUARDED_BY(mutex);  ///< [0] = default
  /// Per-kind SFQ virtual clock.
  std::array<double, 2> vclock QQ_GUARDED_BY(mutex) = {{0.0, 0.0}};
  /// Dispatched-but-not-yet-claimed ids, claimable by a draining caller; a
  /// task is executed by whichever side (pool worker or caller) claims it
  /// first. Stale ids (already claimed) are skipped on pop.
  std::deque<std::size_t> dispatched QQ_GUARDED_BY(mutex);
  std::array<int, 2> inflight QQ_GUARDED_BY(mutex) = {{0, 0}};
  std::size_t unfinished QQ_GUARDED_BY(mutex) = 0;
  std::exception_ptr first_error QQ_GUARDED_BY(mutex);
  // Cumulative counters (EngineStats).
  std::array<double, 2> busy QQ_GUARDED_BY(mutex) = {{0.0, 0.0}};
  double queue_wait QQ_GUARDED_BY(mutex) = 0.0;
  std::array<std::size_t, 2> task_count QQ_GUARDED_BY(mutex) = {{0, 0}};
  std::size_t completed QQ_GUARDED_BY(mutex) = 0;
  std::size_t cancelled QQ_GUARDED_BY(mutex) = 0;
};

WorkflowEngine::WorkflowEngine(const EngineOptions& options)
    : options_(options) {
  if (options.quantum_slots < 1 || options.classical_slots < 1) {
    throw std::invalid_argument("WorkflowEngine: slots must be >= 1");
  }
  impl_ = std::make_shared<Impl>(options);
}

WorkflowEngine::~WorkflowEngine() {
  std::exception_ptr ignored;
  drain(&ignored);
}

util::ThreadPool& WorkflowEngine::pool() const noexcept {
  return *impl_->pool;
}

double WorkflowEngine::now() const noexcept { return impl_->now(); }

ClassId WorkflowEngine::add_class(FairClassConfig config) {
  if (!(config.weight > 0.0)) {
    throw std::invalid_argument("WorkflowEngine::add_class: weight must be > 0");
  }
  util::MutexLock lock(impl_->mutex);
  const ClassId id = static_cast<ClassId>(impl_->classes.size());
  impl_->classes.emplace_back();
  Impl::ClassInfo& cls = impl_->classes.back();
  cls.name = std::move(config.name);
  cls.weight = config.weight;
  // A class born mid-flight starts at the current virtual clock.
  cls.vtime = impl_->vclock;
  return id;
}

std::vector<FairClassStats> WorkflowEngine::class_stats() const {
  util::MutexLock lock(impl_->mutex);
  std::vector<FairClassStats> out;
  out.reserve(impl_->classes.size());
  for (std::size_t i = 0; i < impl_->classes.size(); ++i) {
    const Impl::ClassInfo& cls = impl_->classes[i];
    FairClassStats s;
    s.id = static_cast<ClassId>(i);
    s.name = cls.name;
    s.weight = cls.weight;
    s.dispatched = cls.dispatched;
    s.completed = cls.completed;
    s.cancelled = cls.cancelled;
    s.ready = cls.ready[0].size() + cls.ready[1].size();
    s.busy_seconds = cls.busy_seconds;
    s.queue_wait_seconds = cls.queue_wait;
    out.push_back(std::move(s));
  }
  return out;
}

std::size_t WorkflowEngine::cancel(const util::RequestContext& context) {
  Impl& st = *impl_;
  std::vector<Impl::SettledFn> settled;
  std::size_t newly_cancelled = 0;
  {
    util::MutexLock lock(st.mutex);
    for (Impl::ClassInfo& cls : st.classes) {
      for (std::deque<std::size_t>& ready : cls.ready) {
        // Order-preserving in-place filter of the ready queue.
        auto kept = ready.begin();
        for (const std::size_t id : ready) {
          const auto node = st.nodes.find(id);
          if (node->second.task.context != &context) {
            *kept++ = id;
            continue;
          }
          st.count_cancelled_locked(node->second.task, settled);
          st.nodes.erase(node);
          ++newly_cancelled;
        }
        ready.erase(kept, ready.end());
      }
    }
  }
  const std::exception_ptr err = std::make_exception_ptr(
      util::CancelledError(util::StopReason::kCancelled));
  for (Impl::SettledFn& fn : settled) fn(err);
  // As in run_task: the cancelled tasks stay unfinished until their
  // callbacks have returned.
  st.settle_finished(newly_cancelled);
  return newly_cancelled;
}

void WorkflowEngine::help_until(const std::function<bool()>& done) {
  impl_->help_until(impl_, done);
}

void WorkflowEngine::submit(Task task) {
  if (!task.work) {
    throw std::invalid_argument("WorkflowEngine::submit: empty task");
  }
  Impl& st = *impl_;
  std::vector<Impl::SettledFn> settled;
  bool cancelled_on_arrival = false;
  {
    util::MutexLock lock(st.mutex);
    if (task.fair_class >= st.classes.size()) {
      throw std::invalid_argument("WorkflowEngine::submit: unknown class");
    }
    const int k = kind_index(task.kind);
    ++st.task_count[k];
    ++st.unfinished;
    if (task.context != nullptr && task.context->cancel_requested()) {
      // A submission for an already-cancelled request cancels on arrival:
      // a pipeline racing cancel() cannot leak tasks past it, because
      // cancel() takes this lock after the context's flag is set.
      cancelled_on_arrival = true;
      st.count_cancelled_locked(task, settled);
    } else {
      const std::size_t id = st.next_id++;
      Impl::ClassInfo& cls = st.classes[task.fair_class];
      // SFQ activation: a class going from idle to backlogged re-enters at
      // the current virtual clock, so an idle tenant cannot bank credit and
      // later starve the others with a burst.
      if (cls.ready[k].empty() && cls.running[k] == 0) {
        cls.vtime[k] = std::max(cls.vtime[k], st.vclock[k]);
      }
      Impl::Node& node = st.nodes[id];
      node.task = std::move(task);
      node.ready_s = st.now();
      cls.ready[k].push_back(id);
      st.dispatch_locked(impl_, k);
    }
  }
  if (cancelled_on_arrival) {
    if (!settled.empty()) {
      settled.front()(std::make_exception_ptr(
          util::CancelledError(util::StopReason::kCancelled)));
    }
    st.settle_finished(1);
  }
}

void WorkflowEngine::drain(std::exception_ptr* error_out) {
  Impl& st = *impl_;
  st.help_until(impl_,
                [&st]() QQ_REQUIRES(st.mutex) { return st.unfinished == 0; });
  std::exception_ptr err;
  {
    util::MutexLock lock(st.mutex);
    err = std::exchange(st.first_error, nullptr);
  }
  if (error_out != nullptr) {
    *error_out = err;
  } else if (err) {
    std::rethrow_exception(err);
  }
}

EngineStats WorkflowEngine::stats() const {
  util::MutexLock lock(impl_->mutex);
  EngineStats out;
  out.busy_quantum_seconds = impl_->busy[0];
  out.busy_classical_seconds = impl_->busy[1];
  out.queue_wait_seconds = impl_->queue_wait;
  out.submitted = impl_->task_count[0] + impl_->task_count[1];
  out.completed = impl_->completed;
  out.cancelled = impl_->cancelled;
  out.quantum_tasks = impl_->task_count[0];
  out.classical_tasks = impl_->task_count[1];
  for (const Impl::ClassInfo& cls : impl_->classes) {
    out.ready_quantum += cls.ready[0].size();
    out.ready_classical += cls.ready[1].size();
  }
  out.inflight_quantum = static_cast<std::size_t>(impl_->inflight[0]);
  out.inflight_classical = static_cast<std::size_t>(impl_->inflight[1]);
  return out;
}

}  // namespace qq::sched
