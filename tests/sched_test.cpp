// Tests for the workload-manager substrate: the discrete-event allocation
// model (paper Fig. 1) and the threaded coordinator/worker engine (Fig. 2).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <future>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "sched/des.hpp"
#include "sched/engine.hpp"
#include "util/cancellation.hpp"
#include "util/mutex.hpp"
#include "util/thread_pool.hpp"

namespace qq::sched {
namespace {

// -------------------------------------------------------------------- DES ----

TEST(Des, SingleJobTimeline) {
  const JobPhases job{2.0, 3.0, 1.0};
  DesOptions opts;
  opts.quantum_devices = 1;
  opts.classical_nodes = 1;
  for (const auto policy :
       {AllocationPolicy::kMpmd, AllocationPolicy::kHeterogeneous}) {
    opts.policy = policy;
    const DesResult r = simulate_workload({job}, opts);
    ASSERT_EQ(r.traces.size(), 1u);
    const JobTrace& t = r.traces[0];
    EXPECT_DOUBLE_EQ(t.start, 0.0);
    EXPECT_DOUBLE_EQ(t.quantum_start, 2.0);
    EXPECT_DOUBLE_EQ(t.quantum_end, 5.0);
    EXPECT_DOUBLE_EQ(t.finish, 6.0);
    EXPECT_DOUBLE_EQ(r.makespan, 6.0);
    EXPECT_DOUBLE_EQ(r.quantum_busy, 3.0);
  }
}

TEST(Des, MpmdAllocationIdleFractionMatchesPhases) {
  // MPMD holds the device for prep+quantum+post: idle share = 3/6.
  const JobPhases job{2.0, 3.0, 1.0};
  DesOptions opts;
  opts.policy = AllocationPolicy::kMpmd;
  const DesResult r = simulate_workload({job, job, job}, opts);
  EXPECT_NEAR(r.quantum_alloc_idle_fraction, 0.5, 1e-12);
}

TEST(Des, HeterogeneousAllocationHasZeroAllocIdle) {
  const JobPhases job{2.0, 3.0, 1.0};
  DesOptions opts;
  opts.policy = AllocationPolicy::kHeterogeneous;
  opts.classical_nodes = 4;
  const DesResult r = simulate_workload({job, job, job}, opts);
  EXPECT_NEAR(r.quantum_alloc_idle_fraction, 0.0, 1e-12);
}

TEST(Des, HeterogeneousBeatsMpmdOnMakespan) {
  // One device, plenty of classical nodes: het overlaps the classical
  // phases of different jobs with the device's work (the Fig. 1 scenario).
  std::vector<JobPhases> jobs(6, JobPhases{4.0, 2.0, 1.0});
  DesOptions mpmd;
  mpmd.quantum_devices = 1;
  mpmd.classical_nodes = 6;
  mpmd.policy = AllocationPolicy::kMpmd;
  DesOptions het = mpmd;
  het.policy = AllocationPolicy::kHeterogeneous;
  const DesResult a = simulate_workload(jobs, mpmd);
  const DesResult b = simulate_workload(jobs, het);
  EXPECT_LT(b.makespan, a.makespan);
  EXPECT_GT(b.quantum_utilization, a.quantum_utilization);
}

TEST(Des, MpmdSerializesOnTheDevice) {
  // MPMD with one device: jobs cannot overlap at all.
  std::vector<JobPhases> jobs(3, JobPhases{1.0, 1.0, 1.0});
  DesOptions opts;
  opts.quantum_devices = 1;
  opts.classical_nodes = 8;
  opts.policy = AllocationPolicy::kMpmd;
  const DesResult r = simulate_workload(jobs, opts);
  EXPECT_DOUBLE_EQ(r.makespan, 9.0);
}

TEST(Des, QuantumPhasesNeverOverlapBeyondDeviceCount) {
  std::vector<JobPhases> jobs(8, JobPhases{0.5, 2.0, 0.25});
  DesOptions opts;
  opts.quantum_devices = 2;
  opts.classical_nodes = 8;
  opts.policy = AllocationPolicy::kHeterogeneous;
  const DesResult r = simulate_workload(jobs, opts);
  // Check pairwise overlap count at every quantum interval start.
  for (const JobTrace& t : r.traces) {
    int concurrent = 0;
    for (const JobTrace& o : r.traces) {
      if (o.quantum_start <= t.quantum_start + 1e-12 &&
          t.quantum_start < o.quantum_end - 1e-12) {
        ++concurrent;
      }
    }
    EXPECT_LE(concurrent, 2);
  }
}

TEST(Des, TraceOrderingInvariants) {
  std::vector<JobPhases> jobs = {{1.0, 2.0, 0.5}, {0.0, 1.0, 0.0},
                                 {3.0, 0.5, 2.0}};
  for (const auto policy :
       {AllocationPolicy::kMpmd, AllocationPolicy::kHeterogeneous}) {
    DesOptions opts;
    opts.policy = policy;
    opts.quantum_devices = 1;
    opts.classical_nodes = 2;
    const DesResult r = simulate_workload(jobs, opts);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const JobTrace& t = r.traces[i];
      EXPECT_GE(t.quantum_start, t.start + jobs[i].classical_prep - 1e-12);
      EXPECT_DOUBLE_EQ(t.quantum_end, t.quantum_start + jobs[i].quantum);
      EXPECT_GE(t.finish, t.quantum_end + jobs[i].classical_post - 1e-12);
      EXPECT_GE(t.quantum_wait, 0.0);
      EXPECT_LE(t.finish, r.makespan + 1e-12);
    }
  }
}

TEST(Des, EmptyWorkloadAndValidation) {
  const DesResult r = simulate_workload({}, DesOptions{});
  EXPECT_DOUBLE_EQ(r.makespan, 0.0);
  EXPECT_DOUBLE_EQ(r.quantum_utilization, 0.0);
  EXPECT_THROW(simulate_workload({JobPhases{-1.0, 0.0, 0.0}}, DesOptions{}),
               std::invalid_argument);
  DesOptions bad;
  bad.quantum_devices = 0;
  EXPECT_THROW(simulate_workload({JobPhases{1, 1, 1}}, bad),
               std::invalid_argument);
}

TEST(Des, MoreDevicesNeverIncreaseMakespan) {
  std::vector<JobPhases> jobs(10, JobPhases{0.5, 2.0, 0.5});
  double prev = 1e300;
  for (int devices = 1; devices <= 4; ++devices) {
    DesOptions opts;
    opts.quantum_devices = devices;
    opts.classical_nodes = 10;
    opts.policy = AllocationPolicy::kHeterogeneous;
    const double makespan = simulate_workload(jobs, opts).makespan;
    EXPECT_LE(makespan, prev + 1e-9);
    prev = makespan;
  }
}

TEST(Des, QueuePoliciesPermuteTheSameJobs) {
  std::vector<JobPhases> jobs = {{1.0, 3.0, 0.5}, {0.5, 1.0, 0.5},
                                 {2.0, 2.0, 1.0}};
  for (const auto queue :
       {QueuePolicy::kFifo, QueuePolicy::kLongestQuantumFirst,
        QueuePolicy::kShortestQuantumFirst}) {
    DesOptions opts;
    opts.policy = AllocationPolicy::kHeterogeneous;
    opts.queue = queue;
    opts.classical_nodes = 3;
    const DesResult r = simulate_workload(jobs, opts);
    ASSERT_EQ(r.traces.size(), 3u);
    std::set<int> ids;
    for (const JobTrace& t : r.traces) ids.insert(t.job);
    EXPECT_EQ(ids, (std::set<int>{0, 1, 2}));
    EXPECT_DOUBLE_EQ(r.quantum_busy, 6.0);
  }
}

TEST(Des, ShortestQuantumFirstImprovesMeanCompletion) {
  // Classic SPT property on a single device: short jobs done first lowers
  // the average completion time.
  std::vector<JobPhases> jobs = {{0.0, 8.0, 0.0}, {0.0, 1.0, 0.0},
                                 {0.0, 1.0, 0.0}, {0.0, 1.0, 0.0}};
  DesOptions fifo;
  fifo.policy = AllocationPolicy::kHeterogeneous;
  fifo.classical_nodes = 4;
  DesOptions spt = fifo;
  spt.queue = QueuePolicy::kShortestQuantumFirst;
  const DesResult a = simulate_workload(jobs, fifo);
  const DesResult b = simulate_workload(jobs, spt);
  EXPECT_LT(b.mean_completion, a.mean_completion);
  // Makespan is unchanged on one device (same total work).
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

TEST(Des, LongestQuantumFirstHelpsMultiDevicePacking) {
  // LPT vs FIFO on two devices with an adversarial FIFO order: the long
  // job arriving last forces a tail under FIFO.
  std::vector<JobPhases> jobs = {{0.0, 1.0, 0.0}, {0.0, 1.0, 0.0},
                                 {0.0, 1.0, 0.0}, {0.0, 1.0, 0.0},
                                 {0.0, 4.0, 0.0}};
  DesOptions fifo;
  fifo.policy = AllocationPolicy::kHeterogeneous;
  fifo.quantum_devices = 2;
  fifo.classical_nodes = 5;
  DesOptions lpt = fifo;
  lpt.queue = QueuePolicy::kLongestQuantumFirst;
  EXPECT_LT(simulate_workload(jobs, lpt).makespan,
            simulate_workload(jobs, fifo).makespan);
}

// ----------------------------------------------------------------- engine ----

/// A batch of independent tasks: submit each, then drain. drain() rethrows
/// the first task error unless `error_out` is given.
void run_tasks(WorkflowEngine& engine, std::vector<Task> tasks,
               std::exception_ptr* error_out = nullptr) {
  for (Task& task : tasks) engine.submit(std::move(task));
  engine.drain(error_out);
}

/// Drain until `settled` reaches `expected`: a drain can return between a
/// task's settle and the follow-up task its on_settled submits.
void drain_until(WorkflowEngine& engine, const std::atomic<int>& settled,
                 int expected) {
  while (settled.load() < expected) {
    engine.drain();
    std::this_thread::yield();
  }
}

/// A classical task that holds its slot until `release` is set — keeps
/// the tasks submitted behind it queued.
Task blocker(const std::atomic<bool>& release) {
  return {ResourceKind::kClassical, [&release] {
            while (!release.load()) {
              std::this_thread::sleep_for(std::chrono::microseconds(50));
            }
          }};
}

double busy_seconds(const EngineStats& stats) {
  return stats.busy_quantum_seconds + stats.busy_classical_seconds;
}

TEST(Engine, RunsEveryTaskExactlyOnce) {
  WorkflowEngine engine(EngineOptions{2, 3});
  std::atomic<int> runs{0};
  std::vector<Task> tasks;
  for (int i = 0; i < 40; ++i) {
    tasks.push_back({i % 2 == 0 ? ResourceKind::kQuantum
                                : ResourceKind::kClassical,
                     [&runs] { runs++; }});
  }
  run_tasks(engine, std::move(tasks));
  EXPECT_EQ(runs.load(), 40);
  EXPECT_EQ(engine.stats().submitted, 40u);
  EXPECT_EQ(engine.stats().completed, 40u);
}

TEST(Engine, RespectsQuantumSlotCap) {
  const int slots = 2;
  WorkflowEngine engine(EngineOptions{slots, 8});
  std::atomic<int> active{0};
  std::atomic<int> peak{0};
  std::vector<Task> tasks;
  for (int i = 0; i < 24; ++i) {
    tasks.push_back({ResourceKind::kQuantum, [&active, &peak] {
                       const int now = ++active;
                       int expected = peak.load();
                       while (now > expected &&
                              !peak.compare_exchange_weak(expected, now)) {
                       }
                       std::this_thread::sleep_for(
                           std::chrono::milliseconds(2));
                       --active;
                     }});
  }
  run_tasks(engine, std::move(tasks));
  EXPECT_LE(peak.load(), slots);
  EXPECT_GE(peak.load(), 1);
}

TEST(Engine, ClassicalAndQuantumSlotsAreIndependent) {
  WorkflowEngine engine(EngineOptions{1, 1});
  std::atomic<int> q_active{0}, c_active{0}, both_peak{0};
  std::vector<Task> tasks;
  for (int i = 0; i < 10; ++i) {
    const bool quantum = i % 2 == 0;
    tasks.push_back({quantum ? ResourceKind::kQuantum
                             : ResourceKind::kClassical,
                     [&, quantum] {
                       auto& mine = quantum ? q_active : c_active;
                       ++mine;
                       const int combined = q_active + c_active;
                       int expected = both_peak.load();
                       while (combined > expected &&
                              !both_peak.compare_exchange_weak(expected,
                                                               combined)) {
                       }
                       std::this_thread::sleep_for(
                           std::chrono::milliseconds(2));
                       --mine;
                     }});
  }
  run_tasks(engine, std::move(tasks));
  // One of each kind may run together, but never two of the same kind.
  EXPECT_LE(both_peak.load(), 2);
}

TEST(Engine, TimingsAreOrderedAndBusyAccumulates) {
  WorkflowEngine engine(EngineOptions{2, 2});
  std::vector<double> starts(8, 0.0);
  std::vector<double> ends(8, 0.0);
  std::vector<Task> tasks;
  for (std::size_t i = 0; i < 8; ++i) {
    tasks.push_back({ResourceKind::kClassical, [&engine, &starts, &ends, i] {
                       starts[i] = engine.now();
                       std::this_thread::sleep_for(
                           std::chrono::milliseconds(5));
                       ends[i] = engine.now();
                     }});
  }
  const double t0 = engine.now();
  run_tasks(engine, std::move(tasks));
  EXPECT_GT(engine.now() - t0, 0.0);
  const EngineStats stats = engine.stats();
  EXPECT_GE(busy_seconds(stats), 8 * 0.004);
  EXPECT_GE(stats.queue_wait_seconds, 0.0);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_LE(t0, starts[i]);
    EXPECT_LE(starts[i], ends[i]);
  }
}

TEST(Engine, ThrowingTaskIsFullyAccounted) {
  // A failing task must still be accounted: its partial runtime included
  // in the busy counters, and the first exception reported once the
  // engine drains.
  WorkflowEngine engine(EngineOptions{1, 2});
  std::vector<Task> tasks;
  tasks.push_back({ResourceKind::kClassical, [] {
                     std::this_thread::sleep_for(
                         std::chrono::milliseconds(10));
                   }});
  tasks.push_back({ResourceKind::kClassical, [] {
                     std::this_thread::sleep_for(
                         std::chrono::milliseconds(10));
                     throw std::runtime_error("task failed");
                   }});
  tasks.push_back({ResourceKind::kClassical, [] {
                     std::this_thread::sleep_for(
                         std::chrono::milliseconds(10));
                   }});
  std::exception_ptr error;
  run_tasks(engine, std::move(tasks), &error);
  ASSERT_TRUE(error != nullptr);
  EXPECT_THROW(std::rethrow_exception(error), std::runtime_error);
  // The old engine left the throwing task's runtime out of the busy time.
  const EngineStats stats = engine.stats();
  EXPECT_GE(busy_seconds(stats), 3 * 0.008);
  EXPECT_EQ(stats.completed, 3u);  // a failed task ran, so it completed
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_GE(stats.queue_wait_seconds, 0.0);
  // The error is reported once: the next drain is clean.
  engine.drain(&error);
  EXPECT_TRUE(error == nullptr);
}

TEST(Engine, RecordsQueueWaitBehindSlots) {
  // One classical slot, three sleeping tasks: each successor waits for its
  // predecessor's slot, so the waits stack roughly one service time apart
  // (0, >= 20 ms, >= 40 ms) and the recorded total is at least their sum.
  WorkflowEngine engine(EngineOptions{1, 1});
  std::vector<Task> tasks;
  for (int i = 0; i < 3; ++i) {
    tasks.push_back({ResourceKind::kClassical, [] {
                       std::this_thread::sleep_for(
                           std::chrono::milliseconds(20));
                     }});
  }
  run_tasks(engine, std::move(tasks));
  const double wait = engine.stats().queue_wait_seconds;
  // Load-robust: 15 ms per slot handoff, whatever the ambient dispatch
  // latency is.
  EXPECT_GE(wait, 0.015 + 2 * 0.015);
  // The per-class split accounts for the same total.
  EXPECT_NEAR(engine.class_stats()[0].queue_wait_seconds, wait, 1e-12);
}

TEST(Engine, CoordinationIdealUsesOnlyResourceKindsPresent) {
  // All-quantum batch on 2 quantum slots, with a large classical allotment
  // the batch can never use. The old divisor min(q+c, pool) pretended the
  // classical slots could drain quantum work, skewing the ideal-time
  // estimate and misattributing real slot queueing to "coordination". The
  // per-kind ideal, computed from stats() as every coordination estimate
  // is, makes a clean sleep batch report near-zero overhead.
  util::ThreadPool pool(4);
  EngineOptions opts;
  opts.quantum_slots = 2;
  opts.classical_slots = 64;
  opts.pool = &pool;
  WorkflowEngine engine(opts);
  std::vector<Task> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back({ResourceKind::kQuantum, [] {
                       std::this_thread::sleep_for(
                           std::chrono::milliseconds(10));
                     }});
  }
  run_tasks(engine, std::move(tasks));
  const EngineStats stats = engine.stats();
  EXPECT_GT(stats.busy_quantum_seconds, 0.0);
  EXPECT_DOUBLE_EQ(stats.busy_classical_seconds, 0.0);
  // busy ~= 80 ms over the 2 USABLE slots -> ideal = busy/2. The old
  // formula divided by min(66, 4) = 4, calling ~20 ms of real slot
  // queueing "coordination"; this exact-formula pin fails against it.
  EXPECT_DOUBLE_EQ(
      ideal_parallel_seconds(stats.busy_quantum_seconds,
                             stats.busy_classical_seconds, stats.quantum_tasks,
                             stats.classical_tasks, opts, pool.size()),
      stats.busy_quantum_seconds / 2.0);
}

TEST(Engine, WorkersAreNotParkedBehindTheSlotQueue) {
  // 4 quantum sleeps on ONE quantum slot, submitted ahead of 4 classical
  // sleeps. The old engine parked both pool workers in the quantum
  // semaphore, serializing the phases (~280 ms on this shape); the
  // non-blocking engine overlaps them, so wall stays near the quantum
  // makespan.
  util::ThreadPool pool(2);
  EngineOptions opts;
  opts.quantum_slots = 1;
  opts.classical_slots = 4;
  opts.pool = &pool;
  WorkflowEngine engine(opts);
  // Each task stamps its own start on the engine clock.
  std::vector<double> quantum_starts(4, 0.0);
  std::vector<double> classical_starts(4, 0.0);
  std::vector<Task> tasks;
  for (std::size_t i = 0; i < 4; ++i) {
    tasks.push_back({ResourceKind::kQuantum, [&engine, &quantum_starts, i] {
                       quantum_starts[i] = engine.now();
                       std::this_thread::sleep_for(
                           std::chrono::milliseconds(40));
                     }});
  }
  for (std::size_t i = 0; i < 4; ++i) {
    tasks.push_back({ResourceKind::kClassical,
                     [&engine, &classical_starts, i] {
                       classical_starts[i] = engine.now();
                       std::this_thread::sleep_for(
                           std::chrono::milliseconds(40));
                     }});
  }
  const double t0 = engine.now();
  run_tasks(engine, std::move(tasks));
  EXPECT_GE(engine.now() - t0, 0.16);  // quantum makespan floor
  // Load-robust discriminator: with non-blocking dispatch, classical work
  // begins while the quantum queue is still draining — the first classical
  // task starts before the SECOND quantum task does. The old engine's
  // parked workers pushed every classical start past the third quantum
  // task's completion (~120 ms in).
  std::sort(quantum_starts.begin(), quantum_starts.end());
  EXPECT_LT(*std::min_element(classical_starts.begin(), classical_starts.end()),
            quantum_starts[1]);
}

TEST(Engine, RunBatchFromInsidePoolWorkerCompletes) {
  // Pathological but must not deadlock: the coordinator itself runs on a
  // pool worker (even a pool of ONE) and help-runs its own tasks.
  util::ThreadPool pool(1);
  EngineOptions opts;
  opts.pool = &pool;
  std::atomic<int> runs{0};
  auto fut = pool.submit([&] {
    WorkflowEngine engine(opts);
    std::vector<Task> tasks;
    for (int i = 0; i < 6; ++i) {
      tasks.push_back({i % 2 == 0 ? ResourceKind::kQuantum
                                  : ResourceKind::kClassical,
                       [&runs] { runs++; }});
    }
    run_tasks(engine, std::move(tasks));
    return engine.stats().completed;
  });
  EXPECT_EQ(fut.get(), 6u);
  EXPECT_EQ(runs.load(), 6);
}

TEST(Engine, OptionValidation) {
  EXPECT_THROW(WorkflowEngine(EngineOptions{0, 1}), std::invalid_argument);
  EXPECT_THROW(WorkflowEngine(EngineOptions{1, 0}), std::invalid_argument);
}

TEST(Engine, EmptyBatchIsFine) {
  WorkflowEngine engine(EngineOptions{1, 1});
  run_tasks(engine, {});
  EXPECT_EQ(engine.stats().completed, 0u);
  EXPECT_DOUBLE_EQ(busy_seconds(engine.stats()), 0.0);
}

// ------------------------------------------------- persistent engine ----

TEST(Engine, SubmitChainRunsInDependencyOrder) {
  // A chain built the way the QAOA^2 pipeline builds one: each step's
  // on_settled submits the next, so the steps run in order across kinds.
  WorkflowEngine engine(EngineOptions{2, 2});
  util::Mutex mutex;
  std::vector<int> order;
  std::atomic<int> settled{0};
  std::function<void(int)> submit_step = [&](int i) {
    Task t{i % 2 == 0 ? ResourceKind::kQuantum : ResourceKind::kClassical,
           [&mutex, &order, i] {
             util::MutexLock lock(mutex);
             order.push_back(i);
           }};
    t.on_settled = [&submit_step, &settled, i](std::exception_ptr) {
      if (i < 2) submit_step(i + 1);
      ++settled;
    };
    engine.submit(std::move(t));
  };
  submit_step(0);
  drain_until(engine, settled, 3);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Engine, DiamondDependenciesJoinBeforeSuccessor) {
  // Fan-out and countdown join, the pipeline's level shape: a root submits
  // six middle tasks, and the last of them to settle submits the join,
  // which must see the root and all six middle tasks done.
  WorkflowEngine engine(EngineOptions{2, 2});
  std::atomic<int> fanned{0};
  std::atomic<int> pending{6};
  std::atomic<int> join_saw{-1};
  std::atomic<int> joined{0};
  engine.submit({ResourceKind::kClassical, [&] {
                   fanned += 1;
                   for (int i = 0; i < 6; ++i) {
                     Task mid{i % 2 == 0 ? ResourceKind::kQuantum
                                         : ResourceKind::kClassical,
                              [&fanned] {
                                std::this_thread::sleep_for(
                                    std::chrono::milliseconds(2));
                                fanned += 1;
                              }};
                     mid.on_settled = [&](std::exception_ptr) {
                       if (--pending != 0) return;
                       Task join{ResourceKind::kClassical,
                                 [&] { join_saw = fanned.load(); }};
                       join.on_settled = [&joined](std::exception_ptr) {
                         ++joined;
                       };
                       engine.submit(std::move(join));
                     };
                     engine.submit(std::move(mid));
                   }
                 }});
  drain_until(engine, joined, 1);
  EXPECT_EQ(join_saw.load(), 7);  // root + all six mid tasks done first
}

TEST(Engine, TasksSubmittedFromInsideTasksKeepFlowing) {
  // Dynamic task graphs: a running task submits follow-up tasks (the
  // streaming QAOA^2 pipeline's shape). drain() must see them all.
  WorkflowEngine engine(EngineOptions{2, 2});
  std::atomic<int> runs{0};
  std::function<void(int)> spawn = [&](int depth) {
    runs++;
    if (depth == 0) return;
    engine.submit({ResourceKind::kClassical, [&spawn, depth] {
                     spawn(depth - 1);
                   }});
    engine.submit({ResourceKind::kQuantum, [&spawn, depth] {
                     spawn(depth - 1);
                   }});
  };
  engine.submit({ResourceKind::kClassical, [&spawn] { spawn(3); }});
  engine.drain();
  // 1 root + 2 + 4 + 8 spawned tasks, each counted once.
  EXPECT_EQ(runs.load(), 15);
}

TEST(Engine, StatsAccumulateAcrossBatchesAndSubmits) {
  WorkflowEngine engine(EngineOptions{2, 2});
  std::vector<Task> batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back({ResourceKind::kQuantum, [] {}});
  }
  run_tasks(engine, std::move(batch));
  engine.submit({ResourceKind::kClassical, [] {}});
  engine.drain();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.completed, 5u);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(stats.quantum_tasks, 4u);
  EXPECT_EQ(stats.classical_tasks, 1u);
}

TEST(Engine, SlotCapsHoldAcrossIndependentChains) {
  // Many chains stream through one engine, each step submitting the next
  // from inside its body; the per-kind cap must hold globally, not per
  // chain.
  const int slots = 2;
  WorkflowEngine engine(EngineOptions{slots, 8});
  std::atomic<int> active{0};
  std::atomic<int> peak{0};
  std::atomic<int> steps{0};
  std::function<void(int)> step = [&](int remaining) {
    const int now = ++active;
    int expected = peak.load();
    while (now > expected && !peak.compare_exchange_weak(expected, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    --active;
    ++steps;
    if (remaining > 1) {
      engine.submit({ResourceKind::kQuantum,
                     [&step, remaining] { step(remaining - 1); }});
    }
  };
  for (int chain = 0; chain < 6; ++chain) {
    engine.submit({ResourceKind::kQuantum, [&step] { step(3); }});
  }
  engine.drain();
  EXPECT_EQ(steps.load(), 18);
  EXPECT_LE(peak.load(), slots);
  EXPECT_GE(peak.load(), 1);
}

TEST(Engine, StreamingChainsOverlapAcrossABarrierlessEngine) {
  // Two component-like chains: leaves -> merge -> coarse, each joined the
  // way the QAOA^2 pipeline joins its levels — the last leaf's on_settled
  // submits the merge, whose on_settled submits the coarse task. The FAST
  // chain's coarse task must start while the slow chain's leaves are still
  // running — the cross-level overlap a per-level barrier forbids.
  util::ThreadPool pool(4);
  EngineOptions opts;
  opts.quantum_slots = 2;
  opts.classical_slots = 2;
  opts.pool = &pool;
  WorkflowEngine engine(opts);

  // Every task stamps its start and end on the engine clock.
  struct Stamp {
    double start = 0.0;
    double end = 0.0;
  };
  auto timed = [&engine](ResourceKind kind, int ms, Stamp& stamp) {
    return Task{kind, [&engine, &stamp, ms] {
                  stamp.start = engine.now();
                  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
                  stamp.end = engine.now();
                }};
  };
  struct Chain {
    std::vector<Stamp> leaves;
    std::atomic<int> pending{0};
    Stamp merge;
    Stamp coarse;
  };
  std::atomic<int> chains_done{0};
  auto start_chain = [&](Chain& chain, int leaf_ms) {
    chain.pending = static_cast<int>(chain.leaves.size());
    for (Stamp& leaf : chain.leaves) {
      Task t = timed(ResourceKind::kQuantum, leaf_ms, leaf);
      t.on_settled = [&engine, &chain, &timed,
                      &chains_done](std::exception_ptr) {
        if (--chain.pending != 0) return;
        Task merge = timed(ResourceKind::kClassical, 1, chain.merge);
        merge.on_settled = [&engine, &chain, &timed,
                            &chains_done](std::exception_ptr) {
          Task coarse = timed(ResourceKind::kQuantum, 10, chain.coarse);
          coarse.on_settled = [&chains_done](std::exception_ptr) {
            ++chains_done;
          };
          engine.submit(std::move(coarse));
        };
        engine.submit(std::move(merge));
      };
      engine.submit(std::move(t));
    }
  };
  Chain fast;  // one 5 ms leaf
  fast.leaves.resize(1);
  Chain slow;  // 6 leaves of 20 ms sharing the 2 quantum slots
  slow.leaves.resize(6);
  start_chain(fast, 5);
  start_chain(slow, 20);
  drain_until(engine, chains_done, 2);

  double slow_leaves_end = 0.0;
  for (const Stamp& leaf : slow.leaves) {
    slow_leaves_end = std::max(slow_leaves_end, leaf.end);
  }
  EXPECT_LT(fast.coarse.start, slow_leaves_end)
      << "fast chain's coarse level did not overlap slow chain's leaves";
  EXPECT_GE(slow.merge.start, slow_leaves_end);
  EXPECT_GE(slow.coarse.start, slow.merge.end);
  EXPECT_EQ(engine.stats().completed, 11u);
}

TEST(Engine, SettledTasksAreNotRetained) {
  // A long-lived engine (one SolveService's) must not grow with every task
  // it has ever run: a task's bookkeeping is freed when it settles. The
  // old engine kept every node for handle lookups, about 200 B per task
  // (400k tasks grew the resident set by ~76 MiB).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators hold freed memory";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  GTEST_SKIP() << "sanitizer allocators hold freed memory";
#endif
#endif
  const auto resident_bytes = []() -> long {
    std::FILE* f = std::fopen("/proc/self/statm", "r");
    if (f == nullptr) return -1;
    long size = 0;
    long resident = -1;
    if (std::fscanf(f, "%ld %ld", &size, &resident) != 2) resident = -1;
    std::fclose(f);
    return resident < 0 ? -1 : resident * sysconf(_SC_PAGESIZE);
  };
  WorkflowEngine engine(EngineOptions{2, 4});
  auto run_batch = [&engine] {
    for (int i = 0; i < 10000; ++i) {
      engine.submit({i % 2 == 0 ? ResourceKind::kQuantum
                                : ResourceKind::kClassical,
                     [] {}});
    }
    engine.drain();
  };
  run_batch();  // warm up the pool, the allocator and the ready queues
  const long before = resident_bytes();
  if (before < 0) GTEST_SKIP() << "/proc/self/statm is unreadable";
  for (int batch = 0; batch < 40; ++batch) run_batch();
  const long growth = resident_bytes() - before;
  EXPECT_EQ(engine.stats().completed, 410000u);
  EXPECT_LT(growth, 24L << 20) << "resident set grew " << (growth >> 20)
                               << " MiB over 400k settled tasks";
}

// ----------------------------------------- fair share, cancel, settle ----

TEST(Engine, AddClassValidatesWeightAndSubmitValidatesIds) {
  WorkflowEngine engine(EngineOptions{1, 1});
  EXPECT_THROW(engine.add_class({"zero", 0.0}), std::invalid_argument);
  EXPECT_THROW(engine.add_class({"negative", -1.0}), std::invalid_argument);
  EXPECT_THROW(engine.submit({ResourceKind::kClassical, nullptr}),
               std::invalid_argument);
  Task unknown_class;
  unknown_class.kind = ResourceKind::kClassical;
  unknown_class.work = [] {};
  unknown_class.fair_class = 7;
  EXPECT_THROW(engine.submit(std::move(unknown_class)),
               std::invalid_argument);
}

TEST(Engine, FairShareWeightedDispatchUnderContention) {
  // One classical slot, two classes weighted 3:1, all tasks queued behind
  // a blocker: SFQ must interleave ~3 heavy-class tasks per light-class
  // task while both are backlogged.
  WorkflowEngine engine(EngineOptions{1, 1});
  const ClassId heavy = engine.add_class({"heavy", 3.0});
  const ClassId light = engine.add_class({"light", 1.0});
  std::atomic<bool> release{false};
  engine.submit(blocker(release));
  util::Mutex order_mutex;
  std::vector<ClassId> order;
  auto task_of = [&](ClassId cls) {
    Task t;
    t.kind = ResourceKind::kClassical;
    t.fair_class = cls;
    t.work = [&order_mutex, &order, cls] {
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      util::MutexLock lock(order_mutex);
      order.push_back(cls);
    };
    return t;
  };
  for (int i = 0; i < 12; ++i) engine.submit(task_of(heavy));
  for (int i = 0; i < 12; ++i) engine.submit(task_of(light));
  release = true;
  engine.drain();
  ASSERT_EQ(order.size(), 24u);
  // While both classes were backlogged (the first 16 completions), the
  // heavy class must get roughly its 3x share; exact counts depend on the
  // measured-cost EWMA, so assert the ratio loosely.
  int heavy_first = 0;
  for (std::size_t i = 0; i < 16; ++i) heavy_first += order[i] == heavy;
  EXPECT_GE(heavy_first, 10) << "weight-3 class undersupplied";
  EXPECT_LE(heavy_first, 14) << "weight-1 class starved";

  const std::vector<FairClassStats> stats = engine.class_stats();
  ASSERT_EQ(stats.size(), 3u);  // default + heavy + light
  EXPECT_EQ(stats[heavy].name, "heavy");
  EXPECT_EQ(stats[heavy].completed, 12u);
  EXPECT_EQ(stats[light].completed, 12u);
  EXPECT_GT(stats[heavy].busy_seconds, 0.0);
  EXPECT_GT(stats[light].queue_wait_seconds, 0.0);
  EXPECT_EQ(stats[0].completed, 1u);  // the blocker ran as the default class
}

TEST(Engine, DefaultClassAloneKeepsFifoOrder) {
  // Single-tenant behavior: with only class 0, ready tasks of one kind on
  // one slot run in submission order.
  WorkflowEngine engine(EngineOptions{1, 1});
  std::atomic<bool> release{false};
  engine.submit(blocker(release));
  util::Mutex order_mutex;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    engine.submit({ResourceKind::kClassical, [&order_mutex, &order, i] {
                     util::MutexLock lock(order_mutex);
                     order.push_back(i);
                   }});
  }
  release = true;
  engine.drain();
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, CancelContextCancelsQueuedAndLateTasks) {
  WorkflowEngine engine(EngineOptions{1, 1});
  std::atomic<int> runs{0};
  std::atomic<int> settles{0};
  std::atomic<int> settle_errors{0};
  // Hold the single classical slot so the request's tasks stay queued.
  std::atomic<bool> release{false};
  engine.submit(blocker(release));
  util::RequestContext context;
  const auto request_task = [&] {
    Task t;
    t.kind = ResourceKind::kClassical;
    t.context = &context;
    t.work = [&runs] { runs++; };
    t.on_settled = [&settles, &settle_errors](std::exception_ptr err) {
      settles++;
      if (err) settle_errors++;
    };
    return t;
  };
  for (int i = 0; i < 5; ++i) engine.submit(request_task());
  EXPECT_EQ(engine.stats().ready_classical, 5u);
  context.cancel();
  EXPECT_EQ(engine.cancel(context), 5u);
  EXPECT_EQ(engine.stats().ready_classical, 0u);
  EXPECT_EQ(settles.load(), 5);
  EXPECT_EQ(settle_errors.load(), 5);
  EXPECT_EQ(engine.cancel(context), 0u);  // nothing left to cancel
  // A submission for the cancelled request cancels on arrival.
  engine.submit(request_task());
  EXPECT_EQ(settles.load(), 6);
  EXPECT_EQ(settle_errors.load(), 6);
  release = true;
  // Cancellation must NOT poison the engine's first_error: a plain drain()
  // would rethrow it.
  engine.drain();
  EXPECT_EQ(runs.load(), 0);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.cancelled, 6u);
  EXPECT_EQ(stats.completed, 1u);  // the blocker
  EXPECT_EQ(engine.class_stats()[0].cancelled, 6u);
}

TEST(Engine, CancelContextSparesOtherContexts) {
  // Two requests' tasks interleaved in one ready queue and across two
  // classes: cancel(a) settles exactly a's queued tasks, and b's still run
  // afterwards, in submission order.
  WorkflowEngine engine(EngineOptions{1, 1});
  const ClassId other = engine.add_class({"other", 1.0});
  std::atomic<bool> release{false};
  engine.submit(blocker(release));
  util::RequestContext a;
  util::RequestContext b;
  util::Mutex order_mutex;
  std::vector<int> b_order;
  std::atomic<int> a_runs{0};
  std::atomic<int> a_cancels{0};
  for (int i = 0; i < 6; ++i) {
    Task ta;
    ta.kind = ResourceKind::kClassical;
    ta.fair_class = i % 2 == 0 ? 0 : other;
    ta.context = &a;
    ta.work = [&a_runs] { a_runs++; };
    ta.on_settled = [&a_cancels](std::exception_ptr err) {
      if (err) a_cancels++;
    };
    engine.submit(std::move(ta));
    Task tb;
    tb.kind = ResourceKind::kClassical;
    tb.context = &b;
    tb.work = [&order_mutex, &b_order, i] {
      util::MutexLock lock(order_mutex);
      b_order.push_back(i);
    };
    engine.submit(std::move(tb));
  }
  EXPECT_EQ(engine.stats().ready_classical, 12u);
  a.cancel();
  EXPECT_EQ(engine.cancel(a), 6u);
  EXPECT_EQ(a_cancels.load(), 6);
  EXPECT_EQ(engine.stats().ready_classical, 6u);
  EXPECT_TRUE(b_order.empty());  // nothing ran: the blocker holds the slot
  release = true;
  engine.drain();
  EXPECT_EQ(a_runs.load(), 0);
  ASSERT_EQ(b_order.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(b_order[static_cast<std::size_t>(i)], i);
  }
  EXPECT_EQ(engine.stats().cancelled, 6u);
  EXPECT_EQ(engine.stats().completed, 7u);  // b's six + the blocker
}

TEST(Engine, SubmitCancelsOnArrivalOnlyForACancelledContext) {
  WorkflowEngine engine(EngineOptions{1, 1});
  std::atomic<int> runs{0};
  // An expired deadline is not checked at submit or dispatch: the task
  // runs, and its own throw_if_stopped() would settle it.
  util::RequestContext expired;
  expired.set_deadline_after(-1.0);
  engine.submit(
      {ResourceKind::kClassical, [&runs] { runs++; }, 0, &expired});
  engine.drain();
  EXPECT_EQ(runs.load(), 1);
  // An explicitly cancelled context settles the task inside submit(), on
  // the submitting thread, without running it.
  util::RequestContext cancelled;
  cancelled.cancel();
  std::exception_ptr error;
  bool settled_inside_submit = false;
  Task t{ResourceKind::kClassical, [&runs] { runs++; }, 0, &cancelled};
  t.on_settled = [&error, &settled_inside_submit](std::exception_ptr err) {
    error = err;
    settled_inside_submit = true;
  };
  engine.submit(std::move(t));
  EXPECT_TRUE(settled_inside_submit);
  ASSERT_TRUE(error != nullptr);
  try {
    std::rethrow_exception(error);
  } catch (const util::CancelledError& e) {
    EXPECT_EQ(e.reason(), util::StopReason::kCancelled);
  }
  engine.drain();
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(engine.stats().cancelled, 1u);
}

TEST(Engine, OnSettledFiresExactlyOncePerOutcome) {
  WorkflowEngine engine(EngineOptions{1, 1});
  std::atomic<int> ok_settles{0};
  std::atomic<int> fail_settles{0};
  std::atomic<int> cancel_settles{0};
  std::atomic<bool> release{false};
  engine.submit(blocker(release));
  Task ok;
  ok.kind = ResourceKind::kClassical;
  ok.work = [] {};
  ok.on_settled = [&ok_settles](std::exception_ptr err) {
    if (!err) ok_settles++;
  };
  engine.submit(std::move(ok));
  Task bad;
  bad.kind = ResourceKind::kClassical;
  bad.work = [] { throw std::runtime_error("boom"); };
  bad.on_settled = [&fail_settles](std::exception_ptr err) {
    if (err) fail_settles++;
  };
  engine.submit(std::move(bad));
  util::RequestContext context;
  Task cancelled;
  cancelled.kind = ResourceKind::kClassical;
  cancelled.context = &context;
  cancelled.work = [] {};
  cancelled.on_settled = [&cancel_settles](std::exception_ptr err) {
    if (err) cancel_settles++;
  };
  engine.submit(std::move(cancelled));
  context.cancel();
  engine.cancel(context);
  release = true;
  std::exception_ptr error;
  engine.drain(&error);
  EXPECT_TRUE(error != nullptr);
  EXPECT_EQ(ok_settles.load(), 1);
  EXPECT_EQ(fail_settles.load(), 1);
  EXPECT_EQ(cancel_settles.load(), 1);
}

TEST(Engine, DrainWaitsUntilSettleCallbacksReturn) {
  // The sync objects outlive the pool, whose destructor joins the worker
  // still inside the callback if drain() ever returns early.
  std::promise<void> entered;
  std::promise<void> release;
  std::atomic<bool> drain_returned{false};
  std::atomic<bool> drain_returned_inside_callback{false};
  std::atomic<bool> callback_returned{false};
  // A pool of one: while its worker is held inside the settle callback,
  // only the draining caller can run the engine's other tasks.
  util::ThreadPool pool(1);
  EngineOptions opts;
  opts.quantum_slots = 1;
  opts.classical_slots = 1;
  opts.pool = &pool;
  WorkflowEngine engine(opts);
  Task held;
  held.work = [] {};
  held.on_settled = [&](std::exception_ptr) {
    entered.set_value();
    release.get_future().wait();
    drain_returned_inside_callback = drain_returned.load();
    callback_returned = true;
  };
  engine.submit(std::move(held));
  entered.get_future().wait();
  // The task that lets the callback go runs inside drain() below, so the
  // callback is still open when drain() starts waiting.
  engine.submit(
      {ResourceKind::kClassical, [&release] { release.set_value(); }});
  engine.drain();
  drain_returned = true;
  EXPECT_TRUE(callback_returned.load());
  EXPECT_FALSE(drain_returned_inside_callback.load());
}

TEST(Engine, StatsGaugesTrackReadyAndInflight) {
  WorkflowEngine engine(EngineOptions{1, 1});
  std::atomic<bool> release{false};
  engine.submit(blocker(release));
  for (int i = 0; i < 3; ++i) {
    engine.submit({ResourceKind::kClassical, [] {}});
  }
  // The blocker holds the only classical slot; the rest are ready.
  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.inflight_classical, 1u);
  EXPECT_EQ(stats.ready_classical, 3u);
  EXPECT_EQ(stats.inflight_quantum, 0u);
  EXPECT_EQ(stats.ready_quantum, 0u);
  release = true;
  engine.drain();
  stats = engine.stats();
  EXPECT_EQ(stats.inflight_classical, 0u);
  EXPECT_EQ(stats.ready_classical, 0u);
}

TEST(Engine, HelpUntilRunsDispatchedTasksOnTheCaller) {
  // Pin a pool of one and occupy its only thread, so dispatched tasks can
  // only run when the caller donates its thread via help_until.
  util::ThreadPool pool(1);
  EngineOptions opts;
  opts.quantum_slots = 1;
  opts.classical_slots = 1;
  opts.pool = &pool;
  WorkflowEngine engine(opts);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  engine.submit({ResourceKind::kQuantum, [&started, &release] {
                   started = true;
                   while (!release.load()) {
                     std::this_thread::sleep_for(
                         std::chrono::microseconds(50));
                   }
                 }});
  // Wait for the pool thread to CLAIM the blocker, so help_until below
  // cannot claim it instead (and spin on `release` forever).
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  std::atomic<int> runs{0};
  std::thread::id ran_on;
  for (int i = 0; i < 3; ++i) {
    engine.submit({ResourceKind::kClassical, [&runs, &ran_on] {
                     ran_on = std::this_thread::get_id();
                     runs++;
                   }});
  }
  // The classical tasks are dispatched one slot at a time, but the pool's
  // one thread is stuck in the quantum blocker.
  engine.help_until([&runs] { return runs.load() == 3; });
  EXPECT_EQ(runs.load(), 3);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  release = true;
  engine.drain();
}

}  // namespace
}  // namespace qq::sched
