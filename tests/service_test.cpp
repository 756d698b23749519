// Tests for the multi-tenant solve service (src/service): admission with
// typed rejection, per-request cancellation (explicit / deadline / budget)
// observed mid-solve, two-tenant weighted fair share on one engine, drain
// and shutdown under load, and async-vs-sync QAOA^2 result parity.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "maxcut/cut.hpp"
#include "qaoa2/qaoa2.hpp"
#include "qgraph/generators.hpp"
#include "qgraph/graph.hpp"
#include "service/service.hpp"
#include "solver/registry.hpp"
#include "util/cancellation.hpp"
#include "util/rng.hpp"

namespace qq::service {
namespace {

using graph::Graph;

// A deliberately slow, cooperative test backend: `polls` iterations of
// `ms` milliseconds each, checking the request context between iterations
// exactly like the real optimizer loops do. Cut: alternating assignment.
class SleepySolver final : public solver::Solver {
 public:
  SleepySolver(int polls, double ms) : polls_(polls), ms_(ms) {}

  std::string_view name() const noexcept override { return "sleepy"; }
  sched::ResourceKind resource_kind() const noexcept override {
    return sched::ResourceKind::kClassical;
  }

 protected:
  solver::SolveReport do_solve(
      const solver::SolveRequest& request) const override {
    std::int64_t budget = polls_;
    if (request.context != nullptr && request.context->eval_budget_armed()) {
      budget = std::min(budget, request.context->evals_remaining());
    }
    int done = 0;
    for (; done < budget; ++done) {
      if (request.context != nullptr && request.context->stopped()) break;
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(ms_));
    }
    solver::SolveReport report;
    const auto n = static_cast<std::size_t>(request.graph->num_nodes());
    report.cut.assignment.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      report.cut.assignment[i] = static_cast<int>(i % 2);
    }
    report.cut.value = maxcut::cut_value(*request.graph, report.cut.assignment);
    report.evaluations = done;
    return report;
  }

 private:
  int polls_;
  double ms_;
};

void register_sleepy_once() {
  static const bool registered = [] {
    solver::SolverRegistry::global().register_solver(
        "sleepy", "slow cooperative test backend",
        {{"polls", "iterations"}, {"ms", "milliseconds per iteration"}},
        [](const solver::SolverRegistry&, std::string_view params,
           const solver::SolverDefaults&) -> solver::SolverPtr {
          const solver::Params p("sleepy", params, {"polls", "ms"});
          return std::make_unique<SleepySolver>(p.get_int("polls", 10),
                                                p.get_double("ms", 1.0));
        });
    return true;
  }();
  (void)registered;
}

Graph ring(graph::NodeId n) { return graph::cycle_graph(n); }

// A leaf backend whose first solve throws — one failing sub-graph inside
// a decomposed solve — and a merge backend that counts its calls. Both
// return the alternating assignment otherwise.
std::atomic<int> g_merge_calls{0};

solver::SolveReport alternating_report(const solver::SolveRequest& request) {
  solver::SolveReport report;
  const auto n = static_cast<std::size_t>(request.graph->num_nodes());
  report.cut.assignment.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    report.cut.assignment[i] = static_cast<int>(i % 2);
  }
  report.cut.value = maxcut::cut_value(*request.graph, report.cut.assignment);
  return report;
}

class FailOnceSolver final : public solver::Solver {
 public:
  std::string_view name() const noexcept override { return "fail_once"; }
  sched::ResourceKind resource_kind() const noexcept override {
    return sched::ResourceKind::kClassical;
  }

 protected:
  solver::SolveReport do_solve(
      const solver::SolveRequest& request) const override {
    if (calls_.fetch_add(1) == 0) throw std::runtime_error("leaf failed");
    return alternating_report(request);
  }

 private:
  mutable std::atomic<int> calls_{0};
};

class CountingMergeSolver final : public solver::Solver {
 public:
  std::string_view name() const noexcept override { return "count_merge"; }
  sched::ResourceKind resource_kind() const noexcept override {
    return sched::ResourceKind::kClassical;
  }

 protected:
  solver::SolveReport do_solve(
      const solver::SolveRequest& request) const override {
    ++g_merge_calls;
    return alternating_report(request);
  }
};

void register_failure_solvers_once() {
  static const bool registered = [] {
    solver::SolverRegistry& registry = solver::SolverRegistry::global();
    registry.register_solver(
        "fail_once", "test leaf whose first solve throws", {},
        [](const solver::SolverRegistry&, std::string_view,
           const solver::SolverDefaults&) -> solver::SolverPtr {
          return std::make_unique<FailOnceSolver>();
        });
    registry.register_solver(
        "count_merge", "test merge backend that counts its calls", {},
        [](const solver::SolverRegistry&, std::string_view,
           const solver::SolverDefaults&) -> solver::SolverPtr {
          return std::make_unique<CountingMergeSolver>();
        });
    return true;
  }();
  (void)registered;
}


ServiceRequest sleepy_request(graph::NodeId n, int polls, double ms,
                              const std::string& cls = "") {
  ServiceRequest req;
  req.graph = ring(n);
  req.solver_spec =
      "sleepy:polls=" + std::to_string(polls) + ",ms=" + std::to_string(ms);
  req.workload_class = cls;
  return req;
}

/// Options of the services the sleepy requests run on: no solve cache.
/// These tests load the scheduler with identical synthetic requests; with
/// the cache on they would dedupe into one fill and the queueing behavior
/// under test would vanish.
ServiceOptions uncached_options() {
  ServiceOptions options;
  options.cache.reset();
  return options;
}

// ----------------------------------------------------------- lifecycle ----

TEST(Service, CompletesDirectAndDecomposedRequests) {
  register_sleepy_once();
  SolveService service(ServiceOptions{});

  ServiceRequest direct;
  direct.graph = ring(8);
  direct.solver_spec = "greedy";
  const RequestTicket a = service.submit(std::move(direct));
  ASSERT_TRUE(a.valid());
  service.wait(a);
  EXPECT_EQ(a.status(), RequestStatus::kCompleted);
  EXPECT_GT(a.outcome().cut.value, 0.0);
  EXPECT_EQ(a.outcome().engine_tasks, 1);
  EXPECT_GT(a.id(), 0u);

  ServiceRequest deco;
  deco.graph = ring(30);
  deco.solver_spec = "gw";
  deco.deeper_spec = "gw";
  deco.merge_spec = "gw";
  deco.max_qubits = 8;
  deco.seed = 7;
  const RequestTicket b = service.submit(std::move(deco));
  service.wait(b);
  ASSERT_EQ(b.status(), RequestStatus::kCompleted);
  const RequestOutcome out = b.outcome();
  EXPECT_GT(out.cut.value, 0.0);
  EXPECT_GT(out.engine_tasks, 1);  // decomposed into a task chain

  // Async parity: the service result equals the synchronous driver's.
  qaoa2::Qaoa2Options qopts;
  qopts.max_qubits = 8;
  qopts.sub_solver_spec = "gw";
  qopts.deeper_solver_spec = "gw";
  qopts.merge_solver_spec = "gw";
  qopts.seed = 7;
  const qaoa2::Qaoa2Result sync = qaoa2::solve_qaoa2(ring(30), qopts);
  EXPECT_EQ(out.cut.value, sync.cut.value);
  EXPECT_EQ(out.cut.assignment, sync.cut.assignment);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_FALSE(render_stats(stats).empty());
}

TEST(Qaoa2Failure, LeafErrorIsRethrownOnceAndTheMergeNeverRuns) {
  // ring(30) on 8-qubit devices: one partitioned level whose coarse graph
  // fits, so the merge backend solves it exactly once per successful solve.
  register_failure_solvers_once();
  qaoa2::Qaoa2Options opts;
  opts.max_qubits = 8;
  opts.sub_solver_spec = "gw";
  opts.deeper_solver_spec = "gw";
  opts.merge_solver_spec = "count_merge";
  g_merge_calls = 0;
  EXPECT_GT(qaoa2::solve_qaoa2(ring(30), opts).cut.value, 0.0);
  EXPECT_EQ(g_merge_calls.load(), 1);  // the control: leaves succeed

  g_merge_calls = 0;
  opts.sub_solver_spec = "fail_once";
  int throws = 0;
  try {
    (void)qaoa2::solve_qaoa2(ring(30), opts);
  } catch (const std::runtime_error& e) {
    ++throws;
    EXPECT_STREQ(e.what(), "leaf failed");
  }
  EXPECT_EQ(throws, 1);
  EXPECT_EQ(g_merge_calls.load(), 0);
}

TEST(Service, DecomposedLeafFailureSettlesOnceAsFailed) {
  register_failure_solvers_once();
  SolveService service(uncached_options());
  g_merge_calls = 0;
  ServiceRequest req;
  req.graph = ring(30);
  req.solver_spec = "fail_once";
  req.deeper_spec = "gw";
  req.merge_spec = "count_merge";
  req.max_qubits = 8;
  const RequestTicket t = service.submit(std::move(req));
  service.wait(t);
  ASSERT_EQ(t.status(), RequestStatus::kFailed);
  EXPECT_EQ(t.outcome().error, "leaf failed");
  service.drain();
  EXPECT_EQ(g_merge_calls.load(), 0);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
}

TEST(Service, TicketContractsWhilePendingAndWhenEmpty) {
  register_sleepy_once();
  SolveService service(uncached_options());
  const RequestTicket empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_THROW(empty.status(), std::logic_error);
  EXPECT_THROW(service.wait(empty), std::logic_error);

  const RequestTicket t = service.submit(sleepy_request(6, 50, 2.0));
  EXPECT_THROW((void)t.outcome(), std::logic_error);  // still pending
  service.wait(t);
  EXPECT_NO_THROW((void)t.outcome());
}

// ------------------------------------------------------------ admission ----

TEST(Service, TypedRejections) {
  register_sleepy_once();
  ServiceOptions options = uncached_options();
  options.max_in_flight_requests = 1;
  options.classes = {{"default", 1.0, 1}};
  options.engine.quantum_slots = 1;
  options.engine.classical_slots = 1;
  SolveService service(options);

  // Malformed spec and unknown class reject as invalid, untouched by load.
  ServiceRequest bad_spec;
  bad_spec.graph = ring(4);
  bad_spec.solver_spec = "no-such-solver";
  const RequestTicket r1 = service.submit(std::move(bad_spec));
  EXPECT_EQ(r1.status(), RequestStatus::kRejected);
  EXPECT_EQ(r1.outcome().reject_reason, RejectReason::kInvalidRequest);

  const RequestTicket r2 =
      service.submit(sleepy_request(4, 1, 0.1, "no-such-class"));
  EXPECT_EQ(r2.outcome().reject_reason, RejectReason::kInvalidRequest);

  // Non-positive deadlines are infeasible up front.
  ServiceRequest infeasible = sleepy_request(4, 1, 0.1);
  infeasible.deadline_seconds = -1.0;
  const RequestTicket r3 = service.submit(std::move(infeasible));
  EXPECT_EQ(r3.outcome().reject_reason, RejectReason::kDeadlineInfeasible);

  // Fill the single in-flight slot, then overload.
  const RequestTicket held = service.submit(sleepy_request(4, 200, 2.0));
  EXPECT_EQ(held.status(), RequestStatus::kPending);
  const RequestTicket r4 = service.submit(sleepy_request(4, 1, 0.1));
  EXPECT_EQ(r4.status(), RequestStatus::kRejected);
  EXPECT_EQ(r4.outcome().reject_reason, RejectReason::kOverloaded);

  EXPECT_TRUE(service.cancel(held));
  service.wait(held);

  service.shutdown();
  const RequestTicket r5 = service.submit(sleepy_request(4, 1, 0.1));
  EXPECT_EQ(r5.outcome().reject_reason, RejectReason::kShuttingDown);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected, 5u);
  EXPECT_EQ(stats.in_flight, 0u);
}

TEST(Service, OutOfRangeSpecValueIsRejectedNotFailed) {
  // The registry refuses qaoa:p=0 at make(), so admission rejects the
  // request instead of admitting one that can only fail mid-flight.
  SolveService service(ServiceOptions{});
  ServiceRequest req;
  req.graph = ring(6);
  req.solver_spec = "qaoa:p=0";
  const RequestTicket t = service.submit(std::move(req));
  EXPECT_EQ(t.status(), RequestStatus::kRejected);
  EXPECT_EQ(t.outcome().reject_reason, RejectReason::kInvalidRequest);
}

TEST(Service, NonFiniteDeadlinesAreInvalidAndHugeOnesComplete) {
  SolveService service(ServiceOptions{});
  for (const double deadline : {std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity()}) {
    ServiceRequest req;
    req.graph = ring(6);
    req.solver_spec = "greedy";
    req.deadline_seconds = deadline;
    const RequestTicket t = service.submit(std::move(req));
    EXPECT_EQ(t.status(), RequestStatus::kRejected) << deadline;
    EXPECT_EQ(t.outcome().reject_reason, RejectReason::kInvalidRequest)
        << deadline;
  }
  ServiceRequest huge;
  huge.graph = ring(6);
  huge.solver_spec = "greedy";
  huge.deadline_seconds = 1e300;
  const RequestTicket t = service.submit(std::move(huge));
  service.wait(t);
  EXPECT_EQ(t.status(), RequestStatus::kCompleted);
  EXPECT_EQ(t.outcome().cut.assignment.size(), 6u);
}

TEST(Service, EmptySpecRejectsDirectAndDecomposedAlike) {
  // An empty solver spec names no solver, whether the request is solved
  // directly or decomposed through QAOA^2 (it used to fall back to QAOA).
  SolveService service(ServiceOptions{});
  for (const int max_qubits : {0, 8}) {
    ServiceRequest req;
    req.graph = ring(30);
    req.max_qubits = max_qubits;
    req.solver_spec = "";
    const RequestTicket t = service.submit(std::move(req));
    EXPECT_EQ(t.status(), RequestStatus::kRejected) << max_qubits;
    EXPECT_EQ(t.outcome().reject_reason, RejectReason::kInvalidRequest)
        << max_qubits;
  }
}

// --------------------------------------------------------- cancellation ----

TEST(Service, CancelStopsARunningSolveMidIteration) {
  register_sleepy_once();
  SolveService service(uncached_options());
  // ~10 s of cooperative sleeping if never cancelled.
  const RequestTicket t = service.submit(sleepy_request(6, 5000, 2.0));
  // Let it start, then cancel mid-solve.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(service.cancel(t));
  service.wait(t);
  const RequestOutcome out = t.outcome();
  EXPECT_EQ(out.status, RequestStatus::kCancelled);
  EXPECT_EQ(out.stop_reason, util::StopReason::kCancelled);
  // The cancel must take effect at the next poll, not after all 5000.
  EXPECT_LT(out.latency_seconds, 2.0);
  EXPECT_FALSE(service.cancel(t));  // already settled
}

TEST(Service, CancelQueuedRequestNeverRuns) {
  register_sleepy_once();
  ServiceOptions options = uncached_options();
  options.engine.quantum_slots = 1;
  options.engine.classical_slots = 1;
  SolveService service(options);
  // Occupy the single classical slot...
  const RequestTicket running = service.submit(sleepy_request(6, 100, 2.0));
  // ...so this one is admitted but stays queued, then cancel it.
  const RequestTicket queued = service.submit(sleepy_request(6, 100, 2.0));
  EXPECT_TRUE(service.cancel(queued));
  // A queued task is cancelled at once: its settle — and so the request's
  // finalize — ran on this thread before cancel() returned.
  EXPECT_TRUE(queued.done());
  service.wait(queued);
  EXPECT_EQ(queued.status(), RequestStatus::kCancelled);
  EXPECT_TRUE(service.cancel(running));
  service.wait(running);
  EXPECT_EQ(running.status(), RequestStatus::kCancelled);
}

TEST(Service, DeadlineExpiryCancelsADecomposedSolveMidComponent) {
  register_sleepy_once();
  SolveService service(uncached_options());
  // Several components x several parts, each part ~25 ms: the 60 ms
  // deadline trips after some sub-solves completed, mid-request.
  ServiceRequest req;
  Graph g(36);
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 11; ++i) {
      g.add_edge(c * 12 + i, c * 12 + i + 1);
    }
  }
  req.graph = std::move(g);
  req.solver_spec = "sleepy:polls=5,ms=5";
  req.deeper_spec = "sleepy:polls=5,ms=5";
  req.merge_spec = "sleepy:polls=5,ms=5";
  req.max_qubits = 6;
  req.deadline_seconds = 0.06;
  const RequestTicket t = service.submit(std::move(req));
  service.wait(t);
  const RequestOutcome out = t.outcome();
  EXPECT_EQ(out.status, RequestStatus::kCancelled);
  EXPECT_EQ(out.stop_reason, util::StopReason::kDeadline);
  EXPECT_LT(out.latency_seconds, 2.0);
}

TEST(Service, EvalBudgetExhaustionStopsTheRequest) {
  register_sleepy_once();
  SolveService service(uncached_options());
  ServiceRequest req = sleepy_request(30, 50, 1.0);
  req.deeper_spec = "sleepy:polls=50,ms=1";
  req.merge_spec = "sleepy:polls=50,ms=1";
  req.max_qubits = 8;
  req.eval_budget = 3;  // a fraction of one part's 50 polls
  const RequestTicket t = service.submit(std::move(req));
  service.wait(t);
  const RequestOutcome out = t.outcome();
  EXPECT_EQ(out.status, RequestStatus::kCancelled);
  EXPECT_EQ(out.stop_reason, util::StopReason::kBudget);
}

// ----------------------------------------------------------- fair share ----

TEST(Service, TwoTenantWeightedFairShare) {
  register_sleepy_once();
  ServiceOptions options = uncached_options();
  options.engine.quantum_slots = 1;
  options.engine.classical_slots = 1;  // serialize: fairness is visible
  // The blocker rides a third class so its long run does not skew either
  // tenant's EWMA cost estimate (SFQ charges vtime by estimated cost).
  options.classes = {{"gold", 3.0, 64}, {"bronze", 1.0, 64}, {"ops", 1.0, 4}};
  SolveService service(options);

  // Saturate the slot with equal-cost work from both tenants, submitted
  // while a blocker request holds the slot so every task queues first.
  const RequestTicket blocker =
      service.submit(sleepy_request(6, 10, 2.0, "ops"));
  constexpr int kPerClass = 12;
  std::vector<RequestTicket> gold, bronze;
  for (int i = 0; i < kPerClass; ++i) {
    gold.push_back(service.submit(sleepy_request(6, 2, 2.0, "gold")));
    bronze.push_back(service.submit(sleepy_request(6, 2, 2.0, "bronze")));
  }
  service.drain();

  double gold_latency = 0.0;
  double bronze_latency = 0.0;
  for (const RequestTicket& t : gold) {
    EXPECT_EQ(t.status(), RequestStatus::kCompleted);
    gold_latency += t.outcome().latency_seconds;
  }
  for (const RequestTicket& t : bronze) {
    EXPECT_EQ(t.status(), RequestStatus::kCompleted);
    bronze_latency += t.outcome().latency_seconds;
  }
  EXPECT_EQ(blocker.status(), RequestStatus::kCompleted);
  // Weight 3:1 on one slot with equal-cost requests: the light tenant's
  // mean completion time must noticeably exceed the heavy tenant's (a
  // 3:1 interleave puts gold's mean finish position well before bronze's).
  EXPECT_GT(bronze_latency, 1.3 * gold_latency);

  // Engine-side accounting: both classes did real work and the per-class
  // stats flowed into the service stats.
  const ServiceStats stats = service.stats();
  ASSERT_EQ(stats.classes.size(), 3u);
  EXPECT_EQ(stats.classes[0].name, "gold");
  EXPECT_EQ(stats.classes[0].completed, static_cast<std::size_t>(kPerClass));
  EXPECT_EQ(stats.classes[1].completed, static_cast<std::size_t>(kPerClass));
  EXPECT_GT(stats.classes[0].busy_seconds, 0.0);
  EXPECT_GT(stats.classes[1].busy_seconds, 0.0);
  EXPECT_GT(stats.classes[1].queue_wait_seconds, 0.0);
  EXPECT_GT(stats.classes[0].p50_seconds, 0.0);
}

// ------------------------------------------------------ drain & shutdown ----

TEST(Service, DrainUnderLoadSettlesEveryRequestExactlyOnce) {
  register_sleepy_once();
  ServiceOptions options = uncached_options();
  options.engine.classical_slots = 2;
  SolveService service(options);
  std::vector<RequestTicket> tickets;
  for (int i = 0; i < 16; ++i) {
    tickets.push_back(service.submit(sleepy_request(6, 3, 1.0)));
  }
  // Cancel a few mid-flight while the rest keep flowing.
  for (std::size_t i = 0; i < tickets.size(); i += 4) {
    service.cancel(tickets[i]);
  }
  service.drain();
  std::size_t completed = 0;
  std::size_t cancelled = 0;
  for (const RequestTicket& t : tickets) {
    const RequestStatus s = t.status();
    ASSERT_NE(s, RequestStatus::kPending);
    completed += s == RequestStatus::kCompleted;
    cancelled += s == RequestStatus::kCancelled;
  }
  EXPECT_EQ(completed + cancelled, tickets.size());  // no lost, no failed
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.completed + stats.cancelled, tickets.size());
  // Engine bookkeeping balanced: everything submitted either ran or was
  // cancelled; no slot or ready-queue residue.
  EXPECT_EQ(stats.engine.completed + stats.engine.cancelled,
            stats.engine.submitted);
  EXPECT_EQ(stats.engine.ready_classical, 0u);
  EXPECT_EQ(stats.engine.inflight_classical, 0u);
}

TEST(Service, ShutdownNowCancelsInFlightWork) {
  register_sleepy_once();
  SolveService service(uncached_options());
  std::vector<RequestTicket> tickets;
  for (int i = 0; i < 6; ++i) {
    tickets.push_back(service.submit(sleepy_request(6, 2000, 2.0)));
  }
  service.shutdown_now();
  for (const RequestTicket& t : tickets) {
    EXPECT_NE(t.status(), RequestStatus::kPending);
    EXPECT_NE(t.status(), RequestStatus::kFailed);
  }
  EXPECT_EQ(service.submit(sleepy_request(4, 1, 0.1)).outcome().reject_reason,
            RejectReason::kShuttingDown);
}

}  // namespace
}  // namespace qq::service
