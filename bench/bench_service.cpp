// Multi-tenant solve-service benchmark backing BENCH_service.json: the
// evidence for the service layer's three operational claims (ISSUE 7).
//
//   fair_share   two tenants, weights 3:1, open-loop backlog on ONE
//                classical slot: the completed-work ratio while both stay
//                backlogged must track the weight ratio (target within 15%)
//   overload     open-loop traffic at ~2x capacity against a bounded
//                admission queue: excess is REJECTED (typed, immediate)
//                while the p95 latency of admitted requests stays within
//                2x of the uncontended p95 — the queue never builds
//   cancel       cancelling a long-running request frees its slot within
//                one cooperative task boundary: a short request queued
//                behind it completes in ~its solo time, not the long
//                request's
//
//   bench_service [--smoke] [--json FILE]
//
// --smoke shrinks the run for CI sanitizer legs and loosens the timing
// thresholds (sanitized builds run 2-20x slower); the structural checks
// (rejections typed, statuses terminal, ratio plausible) stay on. Exits 1
// when a check fails.

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "qgraph/generators.hpp"
#include "service/service.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using qq::service::RequestStatus;
using qq::service::RequestTicket;
using qq::service::ServiceOptions;
using qq::service::ServiceRequest;
using qq::service::ServiceStats;
using qq::service::SolveService;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A CPU-bound request of deterministic cost: simulated annealing checks
/// the request context every sweep, so cancellation lands mid-solve.
ServiceRequest anneal_request(const qq::graph::Graph& g, int sweeps,
                              std::uint64_t seed,
                              const std::string& workload_class = "") {
  ServiceRequest req;
  req.graph = g;
  req.solver_spec = "anneal:sweeps=" + std::to_string(sweeps);
  req.workload_class = workload_class;
  req.seed = seed;
  return req;
}

struct FairShareResult {
  std::size_t gold_completed = 0;
  std::size_t bronze_completed = 0;
  double ratio = 0.0;
  bool pass = false;
};

FairShareResult run_fair_share(bool smoke, const qq::graph::Graph& g,
                               int sweeps) {
  ServiceOptions options;
  options.engine.quantum_slots = 1;
  options.engine.classical_slots = 1;  // serialize: fairness is the knob
  options.classes = {{"gold", 3.0, 256}, {"bronze", 1.0, 256}};
  SolveService service(options);

  const int per_class = smoke ? 24 : 96;
  // Steady-state window: the scheduler charges virtual time by an EWMA
  // cost estimate that needs ~10 completions per class to converge, so
  // the ratio is measured as the DELTA between a post-warmup snapshot and
  // a later one — both taken while both tenants are still backlogged
  // (gold drains ~3/4 of the total, so measure_at stays under
  // per_class / 0.75).
  const std::size_t warmup_at = static_cast<std::size_t>(smoke ? 12 : 40);
  const std::size_t measure_at = static_cast<std::size_t>(smoke ? 32 : 104);
  std::vector<RequestTicket> tickets;
  for (int i = 0; i < per_class; ++i) {
    tickets.push_back(service.submit(
        anneal_request(g, sweeps, 1000 + static_cast<std::uint64_t>(i), "gold")));
    tickets.push_back(service.submit(
        anneal_request(g, sweeps, 2000 + static_cast<std::uint64_t>(i), "bronze")));
  }

  FairShareResult result;
  std::size_t gold0 = 0;
  std::size_t bronze0 = 0;
  bool warmed = false;
  for (;;) {
    const ServiceStats stats = service.stats();
    if (!warmed && stats.completed >= warmup_at) {
      gold0 = stats.classes[0].completed;
      bronze0 = stats.classes[1].completed;
      warmed = true;
    }
    if (stats.completed >= measure_at) {
      result.gold_completed = stats.classes[0].completed - gold0;
      result.bronze_completed = stats.classes[1].completed - bronze0;
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  service.shutdown_now();  // flush the backlog; the snapshot is taken

  if (result.bronze_completed > 0) {
    result.ratio = static_cast<double>(result.gold_completed) /
                   static_cast<double>(result.bronze_completed);
  }
  const double lo = smoke ? 2.0 : 2.55;  // 3.0 +/- 15% full, looser smoke
  const double hi = smoke ? 4.5 : 3.45;
  result.pass = result.ratio >= lo && result.ratio <= hi;
  return result;
}

struct OverloadResult {
  double uncontended_p95_s = 0.0;
  double overload_p95_s = 0.0;
  double ratio = 0.0;
  std::size_t admitted = 0;
  std::size_t rejected = 0;
  bool pass = false;
};

OverloadResult run_overload(bool smoke, const qq::graph::Graph& g,
                            int sweeps) {
  OverloadResult result;
  const int samples = smoke ? 10 : 30;

  // Uncontended baseline: one request at a time, no queueing anywhere.
  // One classical slot in BOTH services so the baseline and the overload
  // run have identical per-request service times even on a single-core
  // host (two concurrent CPU-bound solves timesharing one core would
  // inflate the overload service time by 2x on their own).
  double mean_solo_s = 0.0;
  {
    ServiceOptions options;
    options.engine.quantum_slots = 1;
    options.engine.classical_slots = 1;
    SolveService service(options);
    for (int i = 0; i < samples; ++i) {
      const RequestTicket t = service.submit(
          anneal_request(g, sweeps, static_cast<std::uint64_t>(i)));
      service.wait(t);
      mean_solo_s += t.outcome().latency_seconds;
    }
    mean_solo_s /= samples;
    result.uncontended_p95_s = service.stats().classes[0].p95_seconds;
  }

  // Open-loop overload: arrivals at ~2x the single-slot service rate
  // against a 2-deep admission bound. Excess must be rejected immediately
  // (typed), and whatever is admitted waits at most one task behind the
  // one running — which is exactly what keeps the admitted p95 bounded.
  {
    ServiceOptions options;
    options.engine.quantum_slots = 1;
    options.engine.classical_slots = 1;
    options.max_in_flight_requests = 2;
    SolveService service(options);
    const int arrivals = 4 * samples;
    const double inter_arrival_s = mean_solo_s / 2.0;  // 2x capacity
    std::vector<RequestTicket> tickets;
    double next_arrival = now_s();
    for (int i = 0; i < arrivals; ++i) {
      tickets.push_back(service.submit(
          anneal_request(g, sweeps, static_cast<std::uint64_t>(1000 + i))));
      next_arrival += inter_arrival_s;
      const double sleep_s = next_arrival - now_s();
      if (sleep_s > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s));
      }
    }
    service.drain();
    const ServiceStats stats = service.stats();
    result.rejected = stats.rejected;
    result.admitted = stats.completed;
    result.overload_p95_s = stats.classes[0].p95_seconds;
  }

  result.ratio = result.uncontended_p95_s > 0
                     ? result.overload_p95_s / result.uncontended_p95_s
                     : 0.0;
  result.pass = result.rejected > 0 && result.admitted > 0 &&
                result.ratio <= (smoke ? 3.0 : 2.0);
  return result;
}

struct CancelResult {
  double short_solo_s = 0.0;
  double slot_free_s = 0.0;       ///< cancel() -> long request settled
  double cancel_to_done_s = 0.0;  ///< cancel() -> queued short one finished
  bool pass = false;
};

CancelResult run_cancel(bool smoke, const qq::graph::Graph& g,
                        int short_sweeps) {
  ServiceOptions options;
  options.engine.quantum_slots = 1;
  options.engine.classical_slots = 1;
  SolveService service(options);
  CancelResult result;

  // Solo reference for the short request.
  {
    const RequestTicket t = service.submit(anneal_request(g, short_sweeps, 1));
    service.wait(t);
    result.short_solo_s = t.outcome().latency_seconds;
  }

  // A long request holds the only slot; a short one queues behind it.
  const RequestTicket long_req =
      service.submit(anneal_request(g, 4'000'000, 2));
  std::this_thread::sleep_for(std::chrono::milliseconds(smoke ? 20 : 50));
  const RequestTicket short_req =
      service.submit(anneal_request(g, short_sweeps, 3));

  const double cancel_at = now_s();
  service.cancel(long_req);
  service.wait(long_req);
  result.slot_free_s = now_s() - cancel_at;
  service.wait(short_req);
  result.cancel_to_done_s = now_s() - cancel_at;

  const bool statuses_ok =
      long_req.status() == RequestStatus::kCancelled &&
      short_req.status() == RequestStatus::kCompleted;
  // One task boundary = one anneal sweep (microseconds); anything under
  // the threshold means the slot was freed mid-solve, not at its end.
  const double free_cap_s = smoke ? 0.5 : 0.1;
  result.pass = statuses_ok && result.slot_free_s < free_cap_s;
  return result;
}

void write_json(const char* path, bool smoke, const FairShareResult& fair,
                const OverloadResult& over, const CancelResult& cancel) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"_comment\": \"bench_service results: multi-tenant "
               "fair-share / admission-control / cancellation evidence for "
               "the solve service. Regenerate with: ./build/bench/"
               "bench_service --json BENCH_service.json (Release).\",\n");
  std::fprintf(f, "  \"context\": {\"smoke\": %s},\n",
               smoke ? "true" : "false");
  std::fprintf(f,
               "  \"fair_share\": {\"weights\": [3.0, 1.0], "
               "\"gold_completed\": %zu, \"bronze_completed\": %zu, "
               "\"ratio\": %.3f, \"target\": 3.0, \"pass\": %s},\n",
               fair.gold_completed, fair.bronze_completed, fair.ratio,
               fair.pass ? "true" : "false");
  std::fprintf(f,
               "  \"overload\": {\"uncontended_p95_s\": %.6f, "
               "\"overload_p95_s\": %.6f, \"ratio\": %.3f, \"admitted\": "
               "%zu, \"rejected\": %zu, \"pass\": %s},\n",
               over.uncontended_p95_s, over.overload_p95_s, over.ratio,
               over.admitted, over.rejected, over.pass ? "true" : "false");
  std::fprintf(f,
               "  \"cancel\": {\"short_solo_s\": %.6f, \"slot_free_s\": "
               "%.6f, \"cancel_to_done_s\": %.6f, \"pass\": %s}\n",
               cancel.short_solo_s, cancel.slot_free_s,
               cancel.cancel_to_done_s, cancel.pass ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const qq::util::Args args(argc, argv);
  const bool smoke = args.has("smoke");
  const std::string json_path = args.get("json", "");
  args.reject_unknown();

  qq::util::Rng rng(42);
  const qq::graph::Graph g =
      qq::graph::erdos_renyi(60, 0.1, rng, qq::graph::WeightMode::kUniform01);
  const int sweeps = smoke ? 600 : 2000;

  std::printf("=== solve-service bench (%s) ===\n\n",
              smoke ? "smoke" : "full");

  const FairShareResult fair = run_fair_share(smoke, g, sweeps);
  std::printf("fair_share   gold %zu : bronze %zu   ratio %.2f (target 3.0 "
              "+/- 15%%)   %s\n",
              fair.gold_completed, fair.bronze_completed, fair.ratio,
              fair.pass ? "PASS" : "FAIL");

  const OverloadResult over = run_overload(smoke, g, sweeps);
  std::printf("overload     p95 %.3f ms -> %.3f ms (x%.2f, cap %.1f)   "
              "admitted %zu   rejected %zu   %s\n",
              over.uncontended_p95_s * 1e3, over.overload_p95_s * 1e3,
              over.ratio, smoke ? 3.0 : 2.0, over.admitted, over.rejected,
              over.pass ? "PASS" : "FAIL");

  const CancelResult cancel = run_cancel(smoke, g, sweeps);
  std::printf("cancel       short solo %.3f ms   slot freed %.3f ms after "
              "cancel   short done %.3f ms after cancel   %s\n",
              cancel.short_solo_s * 1e3, cancel.slot_free_s * 1e3,
              cancel.cancel_to_done_s * 1e3, cancel.pass ? "PASS" : "FAIL");

  // Live-observability showcase: the per-class stats table of a small
  // mixed run (what an operator sees).
  {
    ServiceOptions options;
    options.classes = {{"gold", 3.0, 64}, {"bronze", 1.0, 64}};
    SolveService service(options);
    std::vector<RequestTicket> tickets;
    for (int i = 0; i < (smoke ? 6 : 16); ++i) {
      tickets.push_back(service.submit(anneal_request(
          g, sweeps, static_cast<std::uint64_t>(i), i % 2 ? "bronze" : "gold")));
    }
    service.cancel(tickets[0]);
    service.drain();
    std::printf("\n%s\n", qq::service::render_stats(service.stats()).c_str());
  }

  if (!json_path.empty()) {
    write_json(json_path.c_str(), smoke, fair, over, cancel);
  }

  const bool ok = fair.pass && over.pass && cancel.pass;
  std::printf("%s\n", ok ? "all checks passed" : "CHECKS FAILED");
  return ok ? 0 : 1;
}
