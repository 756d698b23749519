#pragma once
// Fixed-size thread pool with cooperative (work-helping) nested parallelism.
//
// This is the shared-memory analogue of the paper's MPI worker ranks: the
// state-vector gate kernels, the grid-search sweeps, and the QAOA^2
// sub-graph fan-out all execute through one process-wide pool so that the
// machine is never over-subscribed, mirroring how a SLURM allocation pins a
// fixed set of cores.
//
// Two kinds of work flow through the pool:
//
//  * submit() tasks — coarse, future-returning jobs (e.g. the workflow
//    engine's sub-graph solves). Only pool workers run these; the engine
//    coordinator deliberately does NOT — it claims its own batch's tasks
//    and otherwise helps only via try_help_chunk().
//  * TaskGroup tasks — fine-grained chunks produced by parallel_for_chunks /
//    parallel_reduce. Anybody may run these: pool workers drain them with
//    priority, and a thread waiting on its own group *helps* by executing
//    queued chunks (its own group's or another's) instead of blocking. A
//    nested parallel region called from inside a worker therefore still
//    fans out across the pool — there is no "inside a worker => serial"
//    cliff, and no thread ever parks while chunk work is runnable.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace qq::util {

class ThreadPool {
 public:
  /// threads == 0 selects the value of the QQ_THREADS environment variable,
  /// falling back to std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Schedule a callable; returns a future for its result.
  template <typename F, typename... Args>
  auto submit(F&& f, Args&&... args)
      -> std::future<std::invoke_result_t<F, Args...>> {
    using R = std::invoke_result_t<F, Args...>;
    auto task = std::make_shared<std::packaged_task<R()>>(
        [fn = std::forward<F>(f),
         ... as = std::forward<Args>(args)]() mutable -> R {
          return std::invoke(std::move(fn), std::move(as)...);
        });
    std::future<R> fut = task->get_future();
    {
      MutexLock lock(mutex_);
      queue_.emplace_back([task]() { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// A set of fine-grained tasks whose completion the owner waits for
  /// cooperatively: wait() executes queued chunk tasks (any group's) while
  /// the group drains instead of blocking the calling thread. This is what
  /// makes nested parallel regions safe AND parallel — a worker that opens
  /// a group inside a task helps run the very chunks it enqueued.
  class TaskGroup {
   public:
    explicit TaskGroup(ThreadPool& pool) noexcept : pool_(&pool) {}
    /// Drains remaining tasks (without rethrowing) if wait() was skipped,
    /// so chunk closures never outlive the frame that owns their captures.
    ~TaskGroup();
    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    /// Enqueue one chunk task.
    void run(std::function<void()> fn);

    /// Help-run queued chunk tasks until every task of THIS group has
    /// finished, then rethrow the group's first exception (if any).
    void wait();

   private:
    friend class ThreadPool;
    void drain(bool rethrow);

    ThreadPool* pool_;
    std::size_t pending_ QQ_GUARDED_BY(pool_->mutex_) = 0;
    /// First failure observed among this group's tasks.
    std::exception_ptr error_ QQ_GUARDED_BY(pool_->mutex_);
  };

  /// Run one queued CHUNK task if any is available (never a coarse
  /// submitted task). Chunk bodies are bounded, so this is safe in waits
  /// that must not adopt foreign long-running work — the engine
  /// coordinator's wait loop uses it.
  bool try_help_chunk();

  /// Process-wide count of TaskGroup (chunk) tasks executed, across all
  /// pools. Monotonic; a cheap observability hook used by tests and
  /// bench_micro_engine to verify that nested kernels actually split.
  static std::uint64_t chunk_tasks_executed() noexcept;

  /// Process-wide pool (lazily constructed, sized by QQ_THREADS).
  static ThreadPool& global();

 private:
  struct ChunkTask {
    std::function<void()> fn;
    TaskGroup* group;
  };

  void worker_loop(std::size_t index);
  /// Execute a chunk task and do its completion bookkeeping (error capture,
  /// pending decrement, waiter wake-up).
  void run_chunk_task(ChunkTask task);
  /// Record a finished chunk against its group: capture the first error,
  /// decrement the pending count. Returns true when the group just drained
  /// (the caller notifies outside the lock). The group's fields are guarded
  /// by group.pool_->mutex_, which IS mutex_ (every group is enqueued on
  /// its own pool) — an aliasing fact the analysis cannot express, hence
  /// the targeted body suppression; callers are still checked.
  bool settle_chunk_locked(TaskGroup& group, std::exception_ptr err)
      QQ_REQUIRES(mutex_) QQ_NO_THREAD_SAFETY_ANALYSIS;

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_ QQ_GUARDED_BY(mutex_);
  std::deque<ChunkTask> chunk_queue_ QQ_GUARDED_BY(mutex_);
  Mutex mutex_;
  CondVar cv_;
  bool stop_ QQ_GUARDED_BY(mutex_) = false;
};

namespace detail {
/// Fixed chunk geometry shared by parallel_for_chunks / parallel_reduce and
/// any caller that needs identical boundaries across multiple passes (the
/// sample_counts prefix sum). `count` chunks of `len` indices each (the
/// last chunk may be shorter) cover a range of `total`.
struct ChunkPlan {
  std::size_t count = 0;
  std::size_t len = 0;
};

/// The chunk plan is a pure function of (total, grain) — deliberately
/// independent of pool size and of whether the caller is nested inside a
/// worker. Fixed boundaries mean parallel_reduce's in-order fold groups
/// floating-point operations identically everywhere, so results are
/// bit-for-bit reproducible across thread counts, nesting depth, and
/// scheduling (the old plan depended on pool.size() and collapsed to one
/// chunk inside workers, so nested results differed from top-level ones).
/// kMaxChunks = 64 bounds dispatch overhead while giving an 8-thread pool
/// 8x oversubscription for load balancing.
inline ChunkPlan plan_chunks(std::size_t total, std::size_t grain) noexcept {
  grain = std::max<std::size_t>(grain, 1);
  if (total == 0) return {0, 0};
  if (total <= grain) return {1, total};
  constexpr std::size_t kMaxChunks = 64;
  std::size_t count = std::min(kMaxChunks, (total + grain - 1) / grain);
  const std::size_t len = (total + count - 1) / count;
  count = (total + len - 1) / len;
  return {count, len};
}
}  // namespace detail

/// Evenly split [begin, end) across the pool and run body(i) for each index.
/// Blocks until every index has been processed. Safe to call from inside a
/// worker: the chunks are enqueued on the pool and the caller helps drain
/// them (cooperative nesting), so the region still runs in parallel.
/// `grain` caps the number of chunks: chunks are at least `grain` indices
/// long. Exceptions from `body` propagate to the caller (first one wins).
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain = 1);

/// Chunked variant: body receives [chunk_begin, chunk_end) and may vectorize
/// over it. This is what the state-vector kernels use. The body is invoked
/// exactly plan_chunks(end - begin, grain).count times with the planned
/// boundaries regardless of pool size or nesting.
void parallel_for_chunks(ThreadPool& pool, std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& body,
                         std::size_t grain = 1024);

/// Chunked parallel reduction. `chunk` maps a half-open range [lo, hi) to a
/// partial value of type T; partials are folded left-to-right in chunk order
/// with `combine(acc, partial)`, starting from `identity`. Chunk boundaries
/// come from detail::plan_chunks, which ignores pool size and nesting, so
/// the fold is bit-for-bit deterministic across thread counts and across
/// top-level vs nested invocation — the test suite relies on this. Safe to
/// call from inside a worker (the caller helps drain its own chunks).
template <typename T, typename ChunkFn, typename CombineFn>
T parallel_reduce(ThreadPool& pool, std::size_t begin, std::size_t end,
                  T identity, ChunkFn&& chunk, CombineFn&& combine,
                  std::size_t grain = 1024) {
  if (begin >= end) return identity;
  const detail::ChunkPlan plan = detail::plan_chunks(end - begin, grain);
  if (plan.count <= 1) {
    return combine(std::move(identity), chunk(begin, end));
  }
  std::vector<std::optional<T>> partials(plan.count);
  auto eval = [&](std::size_t c) {
    const std::size_t lo = begin + c * plan.len;
    const std::size_t hi = std::min(end, lo + plan.len);
    partials[c].emplace(chunk(lo, hi));
  };
  if (pool.size() <= 1) {
    // A one-thread pool gains nothing from dispatch; same boundaries, same
    // fold, executed inline.
    for (std::size_t c = 0; c < plan.count; ++c) eval(c);
  } else {
    ThreadPool::TaskGroup group(pool);
    for (std::size_t c = 1; c < plan.count; ++c) {
      group.run([&eval, c] { eval(c); });
    }
    eval(0);       // the caller computes the first chunk itself...
    group.wait();  // ...then helps drain the rest instead of blocking
  }
  T acc = std::move(identity);
  for (std::size_t c = 0; c < plan.count; ++c) {
    acc = combine(std::move(acc), std::move(*partials[c]));
  }
  return acc;
}

/// Convenience wrappers over the global pool.
inline void parallel_for(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t)>& body,
                         std::size_t grain = 1) {
  parallel_for(ThreadPool::global(), begin, end, body, grain);
}
inline void parallel_for_chunks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t grain = 1024) {
  parallel_for_chunks(ThreadPool::global(), begin, end, body, grain);
}
template <typename T, typename ChunkFn, typename CombineFn>
T parallel_reduce(std::size_t begin, std::size_t end, T identity,
                  ChunkFn&& chunk, CombineFn&& combine,
                  std::size_t grain = 1024) {
  return parallel_reduce(ThreadPool::global(), begin, end,
                         std::move(identity), std::forward<ChunkFn>(chunk),
                         std::forward<CombineFn>(combine), grain);
}

}  // namespace qq::util
