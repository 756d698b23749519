#include "fuzz/service_fuzz.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fuzz/scenario.hpp"
#include "maxcut/cut.hpp"
#include "qgraph/graph.hpp"
#include "service/service.hpp"
#include "util/rng.hpp"

namespace qq::fuzz {
namespace {

using service::RejectReason;
using service::RequestStatus;

/// What a request MUST do, decided at generation time. Requests flagged
/// invalid/infeasible are rejected before admission, so their outcome is
/// deterministic; everything else ("valid") may complete, cancel, or be
/// rejected as overloaded — but never fail and never reject as invalid.
enum class Expect { kValid, kInvalid, kInfeasible };

struct StormRequest {
  Expect expect = Expect::kValid;
  graph::Graph graph;  ///< copy kept for the recount oracle
  service::RequestTicket ticket;
};

class StormViolations {
 public:
  StormViolations(std::uint64_t seed, std::vector<Violation>& out)
      : seed_(seed), out_(out) {}

  void add(const char* oracle, const std::string& details) {
    out_.push_back(
        {oracle, "storm seed " + std::to_string(seed_) + ": " + details});
  }

 private:
  std::uint64_t seed_;
  std::vector<Violation>& out_;
};

service::ServiceOptions random_service_options(util::Rng& rng) {
  service::ServiceOptions options;
  options.engine.quantum_slots = util::uniform_int(rng, 1, 2);
  options.engine.classical_slots = util::uniform_int(rng, 1, 3);
  const int num_classes = util::uniform_int(rng, 1, 3);
  for (int i = 0; i < num_classes; ++i) {
    service::WorkloadClassConfig cls;
    cls.name = "tenant" + std::to_string(i);
    cls.weight = util::uniform(rng, 0.5, 4.0);
    cls.max_in_flight = static_cast<std::size_t>(util::uniform_int(rng, 2, 8));
    options.classes.push_back(std::move(cls));
  }
  options.max_in_flight_requests =
      static_cast<std::size_t>(util::uniform_int(rng, 4, 24));
  return options;
}

StormRequest random_request(util::Rng& rng,
                            const service::ServiceOptions& options,
                            service::ServiceRequest& out) {
  StormRequest meta;
  std::string family;
  if (util::bernoulli(rng, 0.4)) {
    // Decomposed: the graph exceeds the qubit budget, so the request
    // streams through the QAOA^2 pipeline as a task chain.
    out.max_qubits = util::uniform_int(rng, 4, 8);
    out.graph = random_graph(rng, 20, family);
    const auto cap = static_cast<graph::NodeId>(out.max_qubits);
    out.solver_spec = random_spec(rng, cap);
    out.deeper_spec = random_leaf_spec(rng, cap);
    out.merge_spec = random_leaf_spec(rng, cap);
  } else {
    out.graph = random_graph(rng, 12, family);
    out.solver_spec = random_spec(rng, out.graph.num_nodes());
  }
  out.workload_class =
      options.classes[static_cast<std::size_t>(util::uniform_int(
                          rng, 0, static_cast<int>(options.classes.size()) - 1))]
          .name;
  out.seed = rng();

  // Deterministically-rejected corners. Class resolution runs before spec
  // validation, which runs before the deadline check — mirror that
  // precedence when several corners are drawn at once.
  if (util::bernoulli(rng, 0.10)) {
    out.solver_spec = random_malformed_spec(rng);
    meta.expect = Expect::kInvalid;
  }
  if (util::bernoulli(rng, 0.08)) {
    out.workload_class = "no-such-tenant";
    meta.expect = Expect::kInvalid;
  }
  if (meta.expect == Expect::kValid && util::bernoulli(rng, 0.05)) {
    out.deadline_seconds = -util::uniform(rng, 0.0, 1.0);
    meta.expect = Expect::kInfeasible;
  } else if (util::bernoulli(rng, 0.15)) {
    // A live (possibly very tight) deadline: trips mid-flight or not at
    // all; either way the request settles as cancelled or completed.
    out.deadline_seconds = util::uniform(rng, 0.002, 0.05);
  }
  if (util::bernoulli(rng, 0.15)) {
    out.eval_budget = util::uniform_int(rng, 1, 60);
  }
  meta.graph = out.graph;
  return meta;
}

void check_completed_cut(const StormRequest& req, StormViolations& v) {
  const service::RequestOutcome out = req.ticket.outcome();
  const auto n = static_cast<std::size_t>(req.graph.num_nodes());
  if (out.cut.assignment.size() != n) {
    v.add("recount", "assignment size " +
                         std::to_string(out.cut.assignment.size()) +
                         " != " + std::to_string(n) + " nodes");
    return;
  }
  for (int side : out.cut.assignment) {
    if (side != 0 && side != 1) {
      v.add("recount", "assignment entry " + std::to_string(side) +
                           " is not 0/1");
      return;
    }
  }
  const double recount = maxcut::cut_value(req.graph, out.cut.assignment);
  if (std::abs(recount - out.cut.value) > cut_tolerance(req.graph)) {
    std::ostringstream oss;
    oss << "reported cut " << out.cut.value << " != recount " << recount;
    v.add("recount", oss.str());
  }
}

void run_storm(std::uint64_t seed, ServiceFuzzReport& report) {
  util::Rng rng(seed);
  StormViolations v(seed, report.violations);

  const service::ServiceOptions options = random_service_options(rng);
  service::SolveService svc(options);

  const int n_requests = util::uniform_int(rng, 8, 24);
  std::vector<StormRequest> requests;
  requests.reserve(static_cast<std::size_t>(n_requests));
  for (int i = 0; i < n_requests; ++i) {
    service::ServiceRequest sreq;
    StormRequest meta = random_request(rng, options, sreq);
    meta.ticket = svc.submit(std::move(sreq));
    requests.push_back(std::move(meta));
  }
  report.requests_submitted += n_requests;

  // Concurrent cancellation storm: a second thread cancels a random subset
  // at random times — while queued, mid-solve, or after settling — and
  // polls stats() to exercise the service/engine lock ordering live.
  std::atomic<int> cancels{0};
  const std::uint64_t cancel_seed = seed ^ 0x5e1ec7ed5eedULL;
  std::thread canceller([&svc, &requests, &cancels, cancel_seed] {  // qq-lint: allow(raw-thread)
    util::Rng crng(cancel_seed);
    for (const StormRequest& req : requests) {
      if (!util::bernoulli(crng, 0.35)) continue;
      std::this_thread::sleep_for(
          std::chrono::microseconds(util::uniform_int(crng, 0, 1500)));
      if (svc.cancel(req.ticket)) cancels.fetch_add(1);
      if (util::bernoulli(crng, 0.25)) (void)svc.stats();
    }
  });
  // Meanwhile the submitting thread donates itself to the engine for a
  // random sample of the requests, like an interactive caller would.
  for (const StormRequest& req : requests) {
    if (util::bernoulli(rng, 0.3)) svc.wait(req.ticket);
  }
  canceller.join();
  report.cancels_issued += cancels.load();

  // Random teardown: graceful drain or cancel-everything shutdown.
  const bool hard_stop = util::bernoulli(rng, 0.25);
  if (hard_stop) {
    svc.shutdown_now();
  } else {
    svc.drain();
  }

  // ---- oracles -----------------------------------------------------------
  std::size_t completed = 0;
  std::size_t cancelled = 0;
  std::size_t rejected = 0;
  for (const StormRequest& req : requests) {
    const RequestStatus first = req.ticket.status();
    if (first != req.ticket.status()) {
      v.add("terminal_once", "status changed after settling");
      continue;
    }
    switch (first) {
      case RequestStatus::kPending:
        v.add("terminal_once", "request still pending after drain");
        continue;
      case RequestStatus::kCompleted: ++completed; break;
      case RequestStatus::kCancelled: ++cancelled; break;
      case RequestStatus::kRejected: ++rejected; break;
      case RequestStatus::kFailed:
        v.add("no_failure",
              "request failed: " + req.ticket.outcome().error);
        continue;
    }
    const service::RequestOutcome out = req.ticket.outcome();
    switch (req.expect) {
      case Expect::kInvalid:
        if (first != RequestStatus::kRejected ||
            out.reject_reason != RejectReason::kInvalidRequest) {
          v.add("typed_reject", "invalid request settled as " +
                                    std::string(request_status_name(first)));
        }
        break;
      case Expect::kInfeasible:
        if (first != RequestStatus::kRejected ||
            out.reject_reason != RejectReason::kDeadlineInfeasible) {
          v.add("typed_reject", "infeasible deadline settled as " +
                                    std::string(request_status_name(first)));
        }
        break;
      case Expect::kValid:
        if (first == RequestStatus::kRejected &&
            out.reject_reason != RejectReason::kOverloaded) {
          v.add("typed_reject",
                std::string("valid request rejected as ") +
                    reject_reason_name(out.reject_reason));
        }
        if (first == RequestStatus::kCompleted) check_completed_cut(req, v);
        break;
    }
  }

  const service::ServiceStats stats = svc.stats();
  if (stats.in_flight != 0) {
    v.add("stats_balance",
          std::to_string(stats.in_flight) + " requests still in flight");
  }
  if (stats.completed != completed || stats.cancelled != cancelled ||
      stats.rejected != rejected || stats.failed != 0) {
    std::ostringstream oss;
    oss << "service counters (" << stats.completed << "/" << stats.cancelled
        << "/" << stats.rejected << "/" << stats.failed
        << " completed/cancelled/rejected/failed) != ticket tallies ("
        << completed << "/" << cancelled << "/" << rejected << "/0)";
    v.add("stats_balance", oss.str());
  }
  std::size_t class_completed = 0;
  std::size_t class_cancelled = 0;
  for (const service::ClassLoad& cls : stats.classes) {
    class_completed += cls.completed;
    class_cancelled += cls.cancelled;
  }
  if (class_completed != completed || class_cancelled != cancelled) {
    v.add("stats_balance", "per-class counters do not sum to the totals");
  }
  // Engine-side balance: every task either ran or was cancelled, and the
  // drained engine holds no ready or in-flight residue.
  const sched::EngineStats& eng = stats.engine;
  if (eng.completed + eng.cancelled != eng.submitted) {
    std::ostringstream oss;
    oss << "engine submitted " << eng.submitted << " != completed "
        << eng.completed << " + cancelled " << eng.cancelled;
    v.add("stats_balance", oss.str());
  }
  if (eng.ready_quantum != 0 || eng.ready_classical != 0 ||
      eng.inflight_quantum != 0 || eng.inflight_classical != 0) {
    v.add("stats_balance", "engine gauges non-zero after drain");
  }
}

}  // namespace

ServiceFuzzReport run_service_fuzz(const ServiceFuzzOptions& options,
                                   std::ostream* log) {
  ServiceFuzzReport report;
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  for (int i = 0; i < options.storms; ++i) {
    if (options.wall_budget_seconds > 0.0 &&
        elapsed() > options.wall_budget_seconds) {
      report.time_exhausted = true;
      break;
    }
    const std::uint64_t seed = options.seed_begin + static_cast<std::uint64_t>(i);
    const std::size_t before = report.violations.size();
    run_storm(seed, report);
    ++report.storms_run;
    if (log != nullptr &&
        (options.verbose || report.violations.size() != before)) {
      *log << "storm " << seed << ": "
           << (report.violations.size() == before ? "clean" : "VIOLATIONS")
           << '\n';
      for (std::size_t j = before; j < report.violations.size(); ++j) {
        *log << "  [" << report.violations[j].oracle << "] "
             << report.violations[j].details << '\n';
      }
    }
  }
  report.wall_seconds = elapsed();
  return report;
}

std::string summarize_service_report(const ServiceFuzzReport& report) {
  std::ostringstream oss;
  oss << "service fuzz: " << report.storms_run << " storm(s), "
      << report.requests_submitted << " request(s), " << report.cancels_issued
      << " cancel(s) landed, " << report.violations.size()
      << " violation(s) in " << report.wall_seconds << " s";
  if (report.time_exhausted) oss << " (time budget exhausted)";
  oss << '\n';
  return oss.str();
}

}  // namespace qq::fuzz
