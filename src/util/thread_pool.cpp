#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace qq::util {

namespace {
std::atomic<std::uint64_t> g_chunk_tasks_executed{0};

std::size_t resolve_thread_count(std::size_t requested) {
  if (requested != 0) return requested;
  if (const char* env = std::getenv("QQ_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : hw;
}
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = resolve_thread_count(threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

std::uint64_t ThreadPool::chunk_tasks_executed() noexcept {
  return g_chunk_tasks_executed.load(std::memory_order_relaxed);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::worker_loop(std::size_t /*index*/) {
  for (;;) {
    ChunkTask chunk{nullptr, nullptr};
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stop_ && chunk_queue_.empty() && queue_.empty()) {
        cv_.wait(lock);
      }
      // Chunk tasks first: they are sub-tasks of already-running work, so
      // draining them bounds the latency of in-flight parallel regions.
      if (!chunk_queue_.empty()) {
        chunk = std::move(chunk_queue_.front());
        chunk_queue_.pop_front();
      } else if (!queue_.empty()) {
        task = std::move(queue_.front());
        queue_.pop_front();
      } else {
        return;  // stop_ set and both queues empty
      }
    }
    if (chunk.group != nullptr) {
      run_chunk_task(std::move(chunk));
    } else {
      task();
    }
  }
}

bool ThreadPool::settle_chunk_locked(TaskGroup& group, std::exception_ptr err) {
  if (err && !group.error_) group.error_ = err;
  return --group.pending_ == 0;
}

void ThreadPool::run_chunk_task(ChunkTask task) {
  g_chunk_tasks_executed.fetch_add(1, std::memory_order_relaxed);
  std::exception_ptr err;
  try {
    task.fn();
  } catch (...) {
    err = std::current_exception();
  }
  bool group_done = false;
  {
    MutexLock lock(mutex_);
    group_done = settle_chunk_locked(*task.group, err);
  }
  // Wake the group's waiter (it sleeps on the shared pool cv when the chunk
  // queue is empty and its tasks are running on other threads).
  if (group_done) cv_.notify_all();
}

bool ThreadPool::try_help_chunk() {
  ChunkTask chunk{nullptr, nullptr};
  {
    MutexLock lock(mutex_);
    if (chunk_queue_.empty()) return false;
    chunk = std::move(chunk_queue_.front());
    chunk_queue_.pop_front();
  }
  run_chunk_task(std::move(chunk));
  return true;
}

ThreadPool::TaskGroup::~TaskGroup() { drain(/*rethrow=*/false); }

void ThreadPool::TaskGroup::run(std::function<void()> fn) {
  {
    MutexLock lock(pool_->mutex_);
    pool_->chunk_queue_.push_back(ChunkTask{std::move(fn), this});
    ++pending_;
  }
  pool_->cv_.notify_one();
}

void ThreadPool::TaskGroup::wait() { drain(/*rethrow=*/true); }

void ThreadPool::TaskGroup::drain(bool rethrow) {
  std::exception_ptr err;
  {
    MutexLock lock(pool_->mutex_);
    while (pending_ != 0) {
      if (!pool_->chunk_queue_.empty()) {
        ChunkTask task = std::move(pool_->chunk_queue_.front());
        pool_->chunk_queue_.pop_front();
        lock.unlock();
        // Help with whatever chunk is next — ours or another group's. Chunk
        // bodies are bounded (no blocking), so this always makes progress
        // and cannot deadlock; helping another group's chunk just means
        // finishing a sibling parallel region first.
        pool_->run_chunk_task(std::move(task));
        lock.lock();
        continue;
      }
      pool_->cv_.wait(lock);
    }
    err = error_;
    error_ = nullptr;
  }
  if (rethrow && err) std::rethrow_exception(err);
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain) {
  parallel_for_chunks(
      pool, begin, end,
      [&body](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      },
      std::max<std::size_t>(grain, 1));
}

void parallel_for_chunks(ThreadPool& pool, std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& body,
                         std::size_t grain) {
  if (begin >= end) return;
  const detail::ChunkPlan plan = detail::plan_chunks(end - begin, grain);
  if (plan.count <= 1) {
    body(begin, end);
    return;
  }
  auto eval = [&](std::size_t c) {
    const std::size_t lo = begin + c * plan.len;
    const std::size_t hi = std::min(end, lo + plan.len);
    body(lo, hi);
  };
  if (pool.size() <= 1) {
    for (std::size_t c = 0; c < plan.count; ++c) eval(c);
    return;
  }
  ThreadPool::TaskGroup group(pool);
  for (std::size_t c = 1; c < plan.count; ++c) {
    group.run([&eval, c] { eval(c); });
  }
  eval(0);       // first chunk on the calling thread...
  group.wait();  // ...then help drain the rest (cooperative nesting)
}

}  // namespace qq::util
