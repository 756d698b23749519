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
    kBlocked,     ///< waiting on dependencies
    kReady,       ///< in a ready queue, waiting for a slot
    kDispatched,  ///< holds a slot, handed to the pool, claimable
    kRunning,     ///< claimed by a pool worker or a waiting coordinator
    kDone,        ///< work returned (possibly via exception; see error)
    kCancelled,   ///< never ran: dependency failure or group cancel
  };

  struct Node {
    Task task;
    Status status = Status::kBlocked;
    int unmet = 0;
    std::vector<std::size_t> successors;
    TaskTiming timing;
    std::exception_ptr error;
  };

  /// One fair-share class: per-kind ready deque + SFQ virtual time. The
  /// deques may hold STALE entries (tasks group-cancelled while queued);
  /// `ready_live` counts only live ones, and dispatch skips stale entries
  /// on pop.
  struct ClassInfo {
    std::string name;
    double weight = 1.0;
    std::array<std::deque<std::size_t>, 2> ready;
    std::array<std::size_t, 2> ready_live{{0, 0}};
    std::array<std::size_t, 2> running{{0, 0}};  ///< dispatched or running
    std::array<double, 2> vtime{{0.0, 0.0}};
    double ewma_cost = kInitialCostEstimate;
    std::size_t dispatched = 0;
    std::size_t completed = 0;
    std::size_t cancelled = 0;
    double busy_seconds = 0.0;
    double queue_wait = 0.0;
  };

  struct GroupInfo {
    bool cancelled = false;
    /// Members submitted so far; pruned only by cancel_group/close_group
    /// (settled entries go stale, which cancel_group skips).
    std::vector<std::size_t> members;
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

  /// Move a node into its class's ready queue for kind k. Successors jump
  /// the queue (depth-first, see run_task); fresh submissions join the
  /// back.
  void enqueue_ready_locked(std::size_t i, bool front) QQ_REQUIRES(mutex) {
    Node& node = nodes[i];
    const int k = kind_index(node.task.kind);
    ClassInfo& cls = classes[node.task.fair_class];
    // SFQ activation: a class going from idle to backlogged re-enters at
    // the current virtual clock, so an idle tenant cannot bank credit and
    // later starve the others with a burst.
    if (cls.ready_live[k] == 0 && cls.running[k] == 0) {
      cls.vtime[k] = std::max(cls.vtime[k], vclock[k]);
    }
    node.status = Status::kReady;
    node.timing.submit_s = now();
    if (front) {
      cls.ready[k].push_front(i);
    } else {
      cls.ready[k].push_back(i);
    }
    ++cls.ready_live[k];
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
        if (cls.ready_live[k] == 0) continue;
        if (best == nullptr || cls.vtime[k] < best->vtime[k]) best = &cls;
      }
      if (best == nullptr) break;
      std::size_t i = 0;
      for (;;) {  // skip entries cancelled while queued
        i = best->ready[k].front();
        best->ready[k].pop_front();
        if (nodes[i].status == Status::kReady) break;
      }
      --best->ready_live[k];
      ++best->running[k];
      ++best->dispatched;
      // Start-time fair queuing: the kind's clock advances to the start
      // tag of the dispatched task; the class pre-pays its estimated cost
      // scaled by weight (actual cost corrects the EWMA at completion).
      vclock[k] = best->vtime[k];
      best->vtime[k] +=
          std::max(best->ewma_cost, 1e-9) / std::max(best->weight, 1e-9);
      ++inflight[k];
      nodes[i].status = Status::kDispatched;
      dispatched.push_back(i);
      pool->submit([self, i] {
        if (Node* node = self->try_claim(i)) self->run_task(self, *node);
      });
    }
  }

  /// Claim a dispatched task for execution. Returns the node pointer so the
  /// caller never touches the deque without the lock: element references
  /// are stable under push_back, but operator[] itself reads the deque's
  /// internal map, which a concurrent submit may be growing.
  Node* try_claim(std::size_t i) QQ_EXCLUDES(mutex) {
    util::MutexLock lock(mutex);
    if (nodes[i].status != Status::kDispatched) return nullptr;
    nodes[i].status = Status::kRunning;
    return &nodes[i];
  }

  /// Cancel a blocked or ready node (and, transitively, its successors)
  /// because a dependency failed or its group was cancelled. Iterative
  /// worklist: a dependency chain can be arbitrarily long, so recursion
  /// would risk the stack. The nodes' on_settled callbacks are collected
  /// into `settled` for the caller to invoke after unlocking.
  void cancel_locked(std::size_t root, const std::exception_ptr& err,
                     std::vector<SettledFn>& settled) QQ_REQUIRES(mutex) {
    std::vector<std::size_t> worklist{root};
    while (!worklist.empty()) {
      const std::size_t i = worklist.back();
      worklist.pop_back();
      Node& node = nodes[i];
      if (node.status != Status::kBlocked && node.status != Status::kReady) {
        continue;
      }
      ClassInfo& cls = classes[node.task.fair_class];
      if (node.status == Status::kReady) {
        // The queue entry stays behind as a stale id; dispatch skips it.
        --cls.ready_live[kind_index(node.task.kind)];
      }
      node.status = Status::kCancelled;
      node.error = err;
      const double t = now();
      node.timing.submit_s = node.timing.start_s = node.timing.end_s = t;
      node.timing.cancelled = true;
      node.task.work = nullptr;
      if (node.task.on_settled) {
        settled.push_back(std::move(node.task.on_settled));
        node.task.on_settled = nullptr;
      }
      ++cancelled;
      ++cls.cancelled;
      --unfinished;
      worklist.insert(worklist.end(), node.successors.begin(),
                      node.successors.end());
      node.successors.clear();
    }
  }

  /// Execute a claimed task (caller holds no lock; `node` was resolved
  /// under it) and do its completion bookkeeping: timings, slot handoff,
  /// successor release, settle callbacks.
  void run_task(const std::shared_ptr<Impl>& self, Node& node)
      QQ_EXCLUDES(mutex) {
    const double start = now();
    std::exception_ptr err;
    // A failing task must not abandon the graph while siblings still
    // reference caller frames; the error is delivered by wait()/drain()
    // once everything owed has settled. Its timing and partial runtime are
    // recorded like any other task's so the report stays accountable.
    try {
      node.task.work();
    } catch (...) {
      err = std::current_exception();
    }
    const double end = now();
    // Release the closure's captures outside the completion lock.
    std::function<void()> release = std::move(node.task.work);
    node.task.work = nullptr;

    SettledFn own_settled;
    std::vector<SettledFn> cancelled_settled;
    {
      util::MutexLock lock(mutex);
      const int k = kind_index(node.task.kind);
      ClassInfo& cls = classes[node.task.fair_class];
      node.timing.start_s = start;
      node.timing.end_s = end;
      node.timing.wait_s = start - node.timing.submit_s;
      node.timing.failed = err != nullptr;
      node.error = err;
      node.status = Status::kDone;
      const double cost = end - start;
      busy[k] += cost;
      cls.busy_seconds += cost;
      cls.ewma_cost =
          (1.0 - kCostEwmaAlpha) * cls.ewma_cost + kCostEwmaAlpha * cost;
      queue_wait += node.timing.wait_s;
      cls.queue_wait += node.timing.wait_s;
      ++completed;
      ++cls.completed;
      --cls.running[k];
      if (err && !first_error) first_error = err;
      --inflight[k];
      --unfinished;
      if (node.task.on_settled) {
        own_settled = std::move(node.task.on_settled);
        node.task.on_settled = nullptr;
      }
      // Release successors: completion of the last dependency moves a
      // blocked task straight into its kind's ready queue.
      for (const std::size_t s : node.successors) {
        Node& succ = nodes[s];
        if (succ.status != Status::kBlocked) continue;
        if (err) {
          cancel_locked(s, err, cancelled_settled);
          continue;
        }
        if (--succ.unmet == 0) {
          // Depth-first: a successor that just became ready jumps the
          // queue. Draining in-flight chains before starting queued
          // breadth is what lets a fast component's coarse level overlap a
          // slow component's still-running leaves instead of parking
          // behind them, and it bounds work-in-progress per chain.
          enqueue_ready_locked(s, /*front=*/true);
        }
      }
      node.successors.clear();
      // Slot handoff: release this slot and dispatch whatever is ready —
      // both kinds, since the released successors may be of either.
      dispatch_locked(self, 0);
      dispatch_locked(self, 1);
    }
    cv.notify_all();
    // Settle callbacks run outside the lock: they may submit follow-up
    // tasks (dynamic graphs) or take service-level locks.
    if (own_settled) own_settled(err);
    for (SettledFn& fn : cancelled_settled) fn(err);
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
      Node* mine = nullptr;
      while (!dispatched.empty()) {
        const std::size_t i = dispatched.front();
        dispatched.pop_front();
        if (nodes[i].status == Status::kDispatched) {
          nodes[i].status = Status::kRunning;
          mine = &nodes[i];
          break;
        }
      }
      if (mine != nullptr) {
        lock.unlock();
        run_task(self, *mine);
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
  /// Deque: stable element references while growing. A claimed task's
  /// Node& is deliberately mutated outside the lock (status kRunning fences
  /// it off); the analysis checks direct `nodes` accesses only.
  std::deque<Node> nodes QQ_GUARDED_BY(mutex);
  std::vector<ClassInfo> classes QQ_GUARDED_BY(mutex);  ///< [0] = default
  /// Per-kind SFQ virtual clock.
  std::array<double, 2> vclock QQ_GUARDED_BY(mutex) = {{0.0, 0.0}};
  std::unordered_map<GroupId, GroupInfo> groups QQ_GUARDED_BY(mutex);
  GroupId next_group QQ_GUARDED_BY(mutex) = 1;
  /// Dispatched-but-not-yet-claimed tasks, coordinator-claimable; a task is
  /// executed by whichever side (pool worker or waiting coordinator) claims
  /// it first. Stale entries (already claimed) are skipped on pop.
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
    s.ready = cls.ready_live[0] + cls.ready_live[1];
    s.busy_seconds = cls.busy_seconds;
    s.queue_wait_seconds = cls.queue_wait;
    out.push_back(std::move(s));
  }
  return out;
}

GroupId WorkflowEngine::open_group() {
  util::MutexLock lock(impl_->mutex);
  const GroupId id = impl_->next_group++;
  impl_->groups.emplace(id, Impl::GroupInfo{});
  return id;
}

std::size_t WorkflowEngine::cancel_group(GroupId group) {
  std::vector<Impl::SettledFn> settled;
  std::size_t newly_cancelled = 0;
  const std::exception_ptr err = std::make_exception_ptr(
      util::CancelledError(util::StopReason::kCancelled));
  {
    util::MutexLock lock(impl_->mutex);
    auto it = impl_->groups.find(group);
    if (it == impl_->groups.end()) return 0;
    it->second.cancelled = true;
    const std::size_t before = impl_->cancelled;
    for (const std::size_t id : it->second.members) {
      impl_->cancel_locked(id, err, settled);
    }
    it->second.members.clear();
    newly_cancelled = impl_->cancelled - before;
  }
  impl_->cv.notify_all();
  for (Impl::SettledFn& fn : settled) fn(err);
  return newly_cancelled;
}

bool WorkflowEngine::group_cancelled(GroupId group) const {
  util::MutexLock lock(impl_->mutex);
  const auto it = impl_->groups.find(group);
  return it != impl_->groups.end() && it->second.cancelled;
}

void WorkflowEngine::close_group(GroupId group) {
  util::MutexLock lock(impl_->mutex);
  impl_->groups.erase(group);
}

bool WorkflowEngine::try_run_one() {
  Impl& st = *impl_;
  Impl::Node* mine = nullptr;
  {
    util::MutexLock lock(st.mutex);
    while (!st.dispatched.empty()) {
      const std::size_t i = st.dispatched.front();
      st.dispatched.pop_front();
      if (st.nodes[i].status == Impl::Status::kDispatched) {
        st.nodes[i].status = Impl::Status::kRunning;
        mine = &st.nodes[i];
        break;
      }
    }
  }
  if (mine == nullptr) return false;
  st.run_task(impl_, *mine);
  return true;
}

TaskHandle WorkflowEngine::submit(Task task,
                                  const std::vector<TaskHandle>& deps) {
  if (!task.work) {
    throw std::invalid_argument("WorkflowEngine::submit: empty task");
  }
  std::vector<Impl::SettledFn> settled;
  std::exception_ptr settle_err;
  std::size_t id = 0;
  {
    util::MutexLock lock(impl_->mutex);
    id = impl_->nodes.size();
    for (const TaskHandle dep : deps) {
      if (dep.id >= id) {
        // Also catches self-dependency and invalid handles; cycles are
        // impossible because a task can only depend on earlier submissions.
        throw std::invalid_argument("WorkflowEngine::submit: bad dependency");
      }
    }
    if (task.fair_class >= impl_->classes.size()) {
      throw std::invalid_argument("WorkflowEngine::submit: unknown class");
    }
    Impl::GroupInfo* group_info = nullptr;
    if (task.group != kNoGroup) {
      const auto it = impl_->groups.find(task.group);
      if (it == impl_->groups.end()) {
        throw std::invalid_argument("WorkflowEngine::submit: unknown group");
      }
      group_info = &it->second;
    }
    impl_->nodes.emplace_back();
    Impl::Node& node = impl_->nodes.back();
    node.task = std::move(task);
    node.timing.task = id;
    node.timing.kind = node.task.kind;
    const int k = kind_index(node.task.kind);
    ++impl_->task_count[k];
    ++impl_->unfinished;

    // A submission into an already-cancelled group cancels on arrival —
    // dynamic pipelines racing a cancel cannot leak tasks past it.
    if (group_info != nullptr && group_info->cancelled) {
      settle_err = std::make_exception_ptr(
          util::CancelledError(util::StopReason::kCancelled));
      impl_->cancel_locked(id, settle_err, settled);
    } else {
      if (group_info != nullptr) group_info->members.push_back(id);
      std::exception_ptr dep_error;
      for (const TaskHandle dep : deps) {
        Impl::Node& parent = impl_->nodes[dep.id];
        switch (parent.status) {
          case Impl::Status::kDone:
            if (parent.error && !dep_error) dep_error = parent.error;
            break;
          case Impl::Status::kCancelled:
            if (!dep_error) dep_error = parent.error;
            break;
          default:
            parent.successors.push_back(id);
            ++node.unmet;
            break;
        }
      }
      if (dep_error) {
        settle_err = dep_error;
        impl_->cancel_locked(id, dep_error, settled);
      } else if (node.unmet == 0) {
        impl_->enqueue_ready_locked(id, /*front=*/false);
        impl_->dispatch_locked(impl_, k);
      }
    }
  }
  for (Impl::SettledFn& fn : settled) fn(settle_err);
  return TaskHandle{id};
}

bool WorkflowEngine::finished(TaskHandle handle) const {
  util::MutexLock lock(impl_->mutex);
  if (handle.id >= impl_->nodes.size()) {
    throw std::out_of_range("WorkflowEngine::finished: unknown handle");
  }
  const auto status = impl_->nodes[handle.id].status;
  return status == Impl::Status::kDone || status == Impl::Status::kCancelled;
}

void WorkflowEngine::wait(TaskHandle handle) {
  {
    util::MutexLock lock(impl_->mutex);
    if (handle.id >= impl_->nodes.size()) {
      throw std::out_of_range("WorkflowEngine::wait: unknown handle");
    }
  }
  Impl& st = *impl_;
  // help_until evaluates `done` with st.mutex held; the annotation lets the
  // analysis check the guarded reads inside the closure body.
  st.help_until(impl_, [&st, handle]() QQ_REQUIRES(st.mutex) {
    const auto status = st.nodes[handle.id].status;
    return status == Impl::Status::kDone ||
           status == Impl::Status::kCancelled;
  });
  std::exception_ptr err;
  {
    util::MutexLock lock(st.mutex);
    err = st.nodes[handle.id].error;
  }
  if (err) std::rethrow_exception(err);
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

TaskTiming WorkflowEngine::timing(TaskHandle handle) const {
  util::MutexLock lock(impl_->mutex);
  if (handle.id >= impl_->nodes.size()) {
    throw std::out_of_range("WorkflowEngine::timing: unknown handle");
  }
  return impl_->nodes[handle.id].timing;
}

EngineStats WorkflowEngine::stats() const {
  util::MutexLock lock(impl_->mutex);
  EngineStats out;
  out.busy_quantum_seconds = impl_->busy[0];
  out.busy_classical_seconds = impl_->busy[1];
  out.queue_wait_seconds = impl_->queue_wait;
  out.submitted = impl_->nodes.size();
  out.completed = impl_->completed;
  out.cancelled = impl_->cancelled;
  out.quantum_tasks = impl_->task_count[0];
  out.classical_tasks = impl_->task_count[1];
  for (const Impl::ClassInfo& cls : impl_->classes) {
    out.ready_quantum += cls.ready_live[0];
    out.ready_classical += cls.ready_live[1];
  }
  out.inflight_quantum = static_cast<std::size_t>(impl_->inflight[0]);
  out.inflight_classical = static_cast<std::size_t>(impl_->inflight[1]);
  return out;
}

}  // namespace qq::sched
