// SolveService workloads (README "Workloads"): er1000_warm, a closed loop
// of resubmits that every leaf answers from the cache, and
// service_openloop, an open-loop Poisson stream over a rate ladder.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "e2e.hpp"
#include "qaoa2/qaoa2.hpp"
#include "qgraph/generators.hpp"
#include "replay.hpp"
#include "service/service.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace e2e {

namespace {

using qq::graph::Graph;
using qq::service::RequestOutcome;
using qq::service::RequestStatus;
using qq::service::RequestTicket;
using qq::service::ServiceOptions;
using qq::service::ServiceRequest;
using qq::service::ServiceStats;
using qq::service::SolveService;

constexpr const char* kLeafSpec = "qaoa:p=2,iters=40";
constexpr const char* kCoarseSpec = "gw";
constexpr int kMaxQubits = 12;

std::int64_t next_request_id() {
  static std::atomic<std::int64_t> next{1};
  return next.fetch_add(1);
}

/// The QAOA configuration kLeafSpec builds (global registry defaults plus
/// the spec's p and iters), for the solo replays.
qq::qaoa::QaoaOptions leaf_qaoa() {
  qq::qaoa::QaoaOptions options;
  options.layers = 2;
  options.max_iterations = 40;
  return options;
}

/// A request for `g`; `max_qubits` 0 dispatches it as one direct solve.
/// `id` rides the request's deadline (request_deadline_seconds).
ServiceRequest make_request(const Graph& g, std::uint64_t seed, int max_qubits,
                            bool traced, const std::string& workload_class,
                            std::int64_t id = next_request_id()) {
  ServiceRequest req;
  req.graph = g;
  req.solver_spec = traced ? timed_spec(Role::kSub, kLeafSpec) : kLeafSpec;
  req.deeper_spec =
      traced ? timed_spec(Role::kCoarse, kCoarseSpec) : kCoarseSpec;
  req.merge_spec = traced ? timed_spec(Role::kCoarse, kCoarseSpec) : kCoarseSpec;
  req.max_qubits = max_qubits;
  req.seed = seed;
  req.workload_class = workload_class;
  req.deadline_seconds = request_deadline_seconds(id);
  return req;
}

/// The Qaoa2Driver the service builds for a decomposed request, without
/// the cache (same cut, and it exposes Qaoa2Result for the replays).
qq::qaoa2::Qaoa2Options driver_options(std::uint64_t seed) {
  qq::qaoa2::Qaoa2Options options;
  options.max_qubits = kMaxQubits;
  options.sub_solver_spec = kLeafSpec;
  options.deeper_solver_spec = kCoarseSpec;
  options.merge_solver_spec = kCoarseSpec;
  options.seed = seed;
  return options;
}

ServiceOptions service_options() {
  ServiceOptions options;
  options.engine.quantum_slots = 4;
  options.engine.classical_slots = 4;
  return options;
}

/// Service and engine counters across a pass of `requests` settled
/// requests.
void add_service_counters(Report& report, const ServiceStats& before,
                          const ServiceStats& after, double requests) {
  add_service_stats(report, before, after, requests);
  auto& m = report.metrics;
  m["sched.queue_wait_s_per_solve"] =
      (after.engine.queue_wait_seconds - before.engine.queue_wait_seconds) /
      requests;
  m["sched.busy_quantum_s"] =
      (after.engine.busy_quantum_seconds - before.engine.busy_quantum_seconds) /
      requests;
  m["sched.busy_classical_s"] = (after.engine.busy_classical_seconds -
                                 before.engine.busy_classical_seconds) /
                                requests;
}

/// Level-0 replays on one decomposed input, checked against an uncached
/// driver solve of the same request (which must return the service's
/// cut). Returns the replayed serial time of one solve.
double add_level0_replays(Report& report, const Graph& g, std::uint64_t seed,
                          const qq::maxcut::CutResult& service_cut,
                          double* hit_term) {
  auto& m = report.metrics;
  const qq::qaoa2::Qaoa2Options options = driver_options(seed);
  const qq::qaoa2::Qaoa2Result solved = qq::qaoa2::Qaoa2Driver(options).solve(g);
  report.check(solved.cut.value == service_cut.value &&
                   solved.cut.assignment == service_cut.assignment,
               "uncached driver solve reproduces the service's cut");
  // A closed loop measures coordination per request in its timed window;
  // under open-loop overlap no request owns the engine, so the solo solve
  // stands in (emplace keeps a value already measured).
  m.emplace("sched.coordination_s", solved.coordination_seconds);
  m["qaoa2.levels"] = solved.levels;
  m["qaoa2.subgraphs"] = solved.subgraphs_total;
  m["qgraph.parts"] = solved.level_stats.front().num_parts;
  m["qgraph.part_max"] = solved.level_stats.front().largest_part;

  const Level0Replay level0 = replay_level0(g, options, solved.cut.assignment, 3);
  report.check(same_level0(level0.stats, solved.level_stats.front()),
               "replayed level-0 partition matches Qaoa2Result::level_stats[0]");
  m["qgraph.partition_s"] = level0.partition_s;
  m["qgraph.extract_s"] = level0.component_s + level0.extract_s;
  m["qaoa2.merge_us"] = level0.merge_s * 1e6;
  const double hit_s = add_cache_replays(report, level0.leaves);
  // Every leaf and coarse solve of a warm request is a hit, spread over
  // the quantum slots.
  *hit_term = solved.subgraphs_total * hit_s /
              service_options().engine.quantum_slots;
  return level0.component_s + level0.partition_s + level0.extract_s +
         level0.merge_s;
}

// ------------------------------------------------------------ er1000_warm

struct WarmState {
  std::unique_ptr<SolveService> service;
  std::vector<Graph> graphs;
  std::vector<std::uint64_t> seeds;
  std::vector<qq::maxcut::CutResult> fill;
  std::vector<qq::maxcut::CutResult> traced_fill;
  std::vector<LeafSpan> traced_fill_spans;
};

struct WarmRecord {
  double start_s = 0.0;
  double submit_s = 0.0;  ///< submit() call duration
  double latency_s = 0.0;
  int graph = 0;
  std::int64_t id = 0;
  int engine_tasks = 0;
  double coordination_s = 0.0;
  double peak_rss_mb = 0.0;  ///< of the process, once this resubmit settled
};

/// Every er1000_warm run makes at least this many resubmits; peak_rss_mb
/// is read after the last of them.
constexpr std::size_t kWarmMinResubmits = 6;
/// latency_tail_s on er1000_warm: a run makes 65-85 resubmits, so p85 has
/// at least ten samples beyond it.
constexpr double kWarmTailPercentile = 85.0;

qq::maxcut::CutResult solve_and_wait(SolveService& service,
                                     ServiceRequest request, Report& report) {
  const RequestTicket ticket = service.submit(std::move(request));
  service.wait(ticket);
  const RequestOutcome outcome = ticket.outcome();
  report.check(outcome.status == RequestStatus::kCompleted,
               std::string("set-up request completed (status ") +
                   qq::service::request_status_name(outcome.status) + ")");
  return outcome.cut;
}

/// Closed-loop resubmits of graph i % G for `seconds`, or exactly `count`.
std::vector<WarmRecord> warm_loop(WarmState& st, bool traced, double seconds,
                                  int count, Report& report) {
  std::vector<WarmRecord> records;
  const qq::sched::EngineOptions engine = service_options().engine;
  const double start = now_s();
  for (int i = 0;; ++i) {
    if (count > 0 ? i >= count
                  : (now_s() - start >= seconds &&
                     records.size() >= kWarmMinResubmits)) {
      break;
    }
    WarmRecord rec;
    rec.graph = i % static_cast<int>(st.graphs.size());
    const std::size_t gi = static_cast<std::size_t>(rec.graph);
    rec.id = next_request_id();
    ServiceRequest req = make_request(st.graphs[gi], st.seeds[gi], kMaxQubits,
                                      traced, "", rec.id);
    const qq::sched::EngineStats before = st.service->stats().engine;
    rec.start_s = now_s();
    const RequestTicket ticket = st.service->submit(std::move(req));
    rec.submit_s = now_s() - rec.start_s;
    st.service->wait(ticket);
    rec.latency_s = now_s() - rec.start_s;
    rec.peak_rss_mb = peak_rss_mb();
    const qq::sched::EngineStats after = st.service->stats().engine;
    const double ideal = qq::sched::ideal_parallel_seconds(
        after.busy_quantum_seconds - before.busy_quantum_seconds,
        after.busy_classical_seconds - before.busy_classical_seconds,
        after.quantum_tasks - before.quantum_tasks,
        after.classical_tasks - before.classical_tasks, engine,
        st.service->engine().pool().size());
    rec.coordination_s = std::max(0.0, rec.latency_s - ideal);

    const RequestOutcome outcome = ticket.outcome();
    rec.engine_tasks = outcome.engine_tasks;
    const auto& expected = traced ? st.traced_fill[gi] : st.fill[gi];
    const bool ok = outcome.status == RequestStatus::kCompleted &&
                    valid_cut(st.graphs[gi], outcome.cut) &&
                    outcome.cut.value == expected.value &&
                    outcome.cut.assignment == expected.assignment;
    report.check(ok, "resubmit " + std::to_string(i) +
                         " completed with the cut its set-up fill returned");
    ++report.attempted;
    if (!ok) ++report.failed;
    records.push_back(rec);
  }
  return records;
}

}  // namespace

Report run_er1000_warm(const Config& config) {
  Report report;
  const int nodes = config.smoke ? 300 : 1000;
  // Edge probability 0.05, not 0.1: a resubmit then takes about 0.25 s
  // instead of 0.7 s, so a run fits about 75 of them and its tail is not
  // set by two or three samples. Three graphs, not more: set-up runs
  // kSetupReps times and each fill costs about 0.35 s; an odd count keeps
  // the median latency inside one graph's cluster of resubmits.
  constexpr double kEdgeProbability = 0.05;
  const int num_graphs = config.smoke ? 1 : 3;
  double setup_s = 0.0;
  if (config.traced) register_timed_solvers();
  const std::unique_ptr<WarmState> st = timed_setup(config.traced, setup_s, [&] {
    auto s = std::make_unique<WarmState>();
    for (int i = 0; i < num_graphs; ++i) {
      qq::util::Rng rng(input_seed(config.seed, 0xe1000ULL, i));
      s->graphs.push_back(qq::graph::erdos_renyi(nodes, kEdgeProbability, rng));
      s->seeds.push_back(input_seed(config.seed, 0x5eedULL, i));
    }
    s->service = std::make_unique<SolveService>(service_options());
    for (int i = 0; i < num_graphs; ++i) {
      s->fill.push_back(solve_and_wait(
          *s->service,
          make_request(s->graphs[i], s->seeds[i], kMaxQubits, false, ""),
          report));
    }
    if (config.traced) {
      span_log().take();
      for (int i = 0; i < num_graphs; ++i) {
        s->traced_fill.push_back(solve_and_wait(
            *s->service,
            make_request(s->graphs[i], s->seeds[i], kMaxQubits, true, ""),
            report));
      }
      s->traced_fill_spans = span_log().take();
    }
    s->service->drain();
    return s;
  });

  std::vector<double> fill_cuts;
  for (const auto& c : st->fill) fill_cuts.push_back(c.value);
  check_golden(report, config, "er1000_warm", fill_cuts, num_graphs);

  const auto misses = [&st] { return st->service->stats().cache.misses; };
  if (!config.traced) {
    const std::uint64_t misses_before = misses();
    const std::vector<WarmRecord> records =
        warm_loop(*st, false, config.seconds, 0, report);
    report.check(misses() == misses_before,
                 "every leaf of every resubmit hit the cache");
    std::vector<double> latencies;
    double busy = 0, cut = 0, weight = 0;
    for (const WarmRecord& r : records) {
      latencies.push_back(r.latency_s);
      busy += r.latency_s;
      cut += st->fill[static_cast<std::size_t>(r.graph)].value;
      weight += st->graphs[static_cast<std::size_t>(r.graph)].total_weight();
    }
    auto& m = report.metrics;
    m["setup_s"] = setup_s;
    m["latency_p50_s"] = median_of(latencies);
    m["latency_tail_s"] = percentile_of(latencies, kWarmTailPercentile);
    m["throughput_per_s"] = static_cast<double>(records.size()) / busy;
    m["cut_fraction"] = cut / weight;
    m["peak_rss_mb"] = records[kWarmMinResubmits - 1].peak_rss_mb;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "samples %zu resubmits; latency_tail_s is p%.0f (%.1f "
                  "samples beyond it)",
                  records.size(), kWarmTailPercentile,
                  static_cast<double>(records.size()) *
                      (100.0 - kWarmTailPercentile) / 100.0);
    report.note(line);
    return report;
  }

  // Traced run: untraced resubmits for half the time, then the same count
  // through the decorated specs (filled in set-up, so they hit too).
  for (int i = 0; i < num_graphs; ++i) {
    const auto& a = st->fill[static_cast<std::size_t>(i)];
    const auto& b = st->traced_fill[static_cast<std::size_t>(i)];
    report.check(a.value == b.value && a.assignment == b.assignment,
                 "traced fill " + std::to_string(i) +
                     " is bit-identical to the untraced fill");
  }
  const std::vector<WarmRecord> plain =
      warm_loop(*st, false, config.seconds / 2, 0, report);
  const ServiceStats before = st->service->stats();
  span_log().take();
  const std::vector<WarmRecord> traced =
      warm_loop(*st, true, 0.0, static_cast<int>(plain.size()), report);
  const std::vector<LeafSpan> spans = span_log().take();
  const ServiceStats after = st->service->stats();

  auto& m = report.metrics;
  const double n = static_cast<double>(traced.size());
  std::vector<double> plain_lat, traced_lat, submit_us;
  double tasks = 0, coordination = 0, serial = 0;
  for (const WarmRecord& r : plain) plain_lat.push_back(r.latency_s);
  std::map<std::int64_t, std::vector<std::pair<double, double>>> by_request;
  for (const LeafSpan& s : spans) {
    by_request[s.parent].emplace_back(s.start_s, s.end_s);
  }
  std::vector<TraceEvent> events;
  std::vector<double> unions;
  for (const WarmRecord& r : traced) {
    traced_lat.push_back(r.latency_s);
    submit_us.push_back(r.submit_s * 1e6);
    tasks += r.engine_tasks;
    coordination += r.coordination_s;
    const double covered = union_seconds(by_request[r.id]);
    unions.push_back(covered);
    serial += r.latency_s - covered;
    TraceEvent e;
    e.name = "request";
    e.category = "client";
    e.start_s = r.start_s;
    e.dur_s = r.latency_s;
    e.args = "\"id\": " + std::to_string(r.id);
    events.push_back(std::move(e));
  }
  add_span_events(events, spans);
  m["trace.overhead_frac"] = median_of(traced_lat) / median_of(plain_lat);
  m["service.submit_us_p50"] = median_of(submit_us);
  add_service_counters(report, before, after, n);
  m["sched.tasks_per_solve"] = tasks / n;
  m["sched.coordination_s"] = coordination / n;
  m["qaoa2.serial_s"] = serial / n;
  // Every solve of a resubmit is a cache hit, so the timed window calls no
  // solver (cache.misses reads 0): solver.* and qaoa.* describe the solves
  // of the traced set-up fill, per filled graph.
  add_leaf_metrics(report, st->traced_fill_spans, num_graphs);
  add_leaf_replays(report, st->traced_fill_spans, leaf_qaoa(), 16);

  double hit_term = 0.0;
  const double replayed_serial = add_level0_replays(
      report, st->graphs[0], st->seeds[0], st->fill[0], &hit_term);
  std::vector<double> coverage;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    coverage.push_back(std::min(
        1.0, (unions[i] + replayed_serial + hit_term) / traced[i].latency_s));
  }
  m["trace.coverage_frac"] = median_of(coverage);
  add_kernel_replays(report, st->graphs[0], leaf_qaoa().layers);
  write_trace(report, config, "er1000_warm", events);
  return report;
}

// ------------------------------------------------------- service_openloop

namespace {

/// One rung of the arrival-rate ladder.
struct Rung {
  double rate;     ///< requests per second
  double seconds;  ///< share of the run's --seconds
};

/// The rate ladder (README "Workloads"; capacity on the 4-CPU reference
/// VM measured 150-230 requests/s as the host's load changed). Rung 0 is
/// the reference rate: it gets half the window, so its p50 and p95 rest
/// on about 440 samples, and it loads the engine to about a quarter of
/// capacity, so a slower host lengthens its queues little. The last rung
/// offers well over capacity, so from its start until the backlog drains
/// the engine never runs dry: the saturated throughput.
const std::vector<Rung> kLadder = {{40.0, 0.50},
                                   {100.0, 0.15},
                                   {160.0, 0.15},
                                   {300.0, 0.20}};
constexpr std::size_t kReferenceRung = 0;
constexpr std::size_t kSaturationRung = 3;
/// Saturated throughput is the median settle rate over slices of this
/// length, so a stall of the host over part of the stretch does not move
/// it.
constexpr double kSliceSeconds = 0.5;
/// Latency limit on a rung's p95, from when each request was due.
constexpr double kSloSeconds = 0.25;
/// Generator lateness p95 above this invalidates the run.
constexpr double kMaxLatenessS = 0.005;
/// Nice value of the engine's worker threads; the client thread keeps 0.
constexpr int kWorkerNice = 19;
/// Admission bounds far above the largest backlog the ladder builds, even
/// on a host at half speed: a rejected request would count as failed.
constexpr std::size_t kClassMaxInFlight = 4096;
/// Two of every five requests of a type repeat a (graph, seed) item drawn
/// Zipf-popular from a hot set; the rest name a fresh item, which misses.
/// Types alternate and the repeat pattern is fixed, so every rung carries
/// the same mix of work whatever the seed; only arrival times and item
/// popularity are random.
constexpr int kRepeatOf5 = 2;
constexpr int kHotItems = 16;
constexpr double kZipfExponent = 1.0;

struct Arrival {
  double due_s = 0.0;  ///< from the schedule's start
  std::size_t rung = 0;
  bool decomposed = false;
  bool gold = false;
  int item = 0;
};

struct OpenRecord {
  Arrival arrival;
  double lateness_s = 0.0;
  double submit_s = 0.0;   ///< submit() call duration
  double peak_rss_mb = 0.0;  ///< of the process, just after the submit
  double latency_s = std::numeric_limits<double>::infinity();  ///< from due
  double settle_s = std::numeric_limits<double>::infinity();   ///< from start
  double start_abs_s = 0.0;  ///< the schedule's start on the now_s() clock
  double service_latency_s = 0.0;
  RequestStatus status = RequestStatus::kPending;
  bool valid = false;
  double cut = 0.0;
  double weight = 0.0;
  std::uint64_t cut_hash = 0;
  int engine_tasks = 0;
  std::int64_t id = 0;
};

/// Creates the process-wide pool from a helper thread at kWorkerNice, so
/// its workers inherit that value and the client thread, woken when an
/// arrival is due, does not queue for a CPU behind them. On the 4-CPU
/// reference VM this took generator lateness p95 from about 3 ms to 0.5-1.5
/// ms; what remains comes from the host. Raising a thread's nice value
/// needs no privilege.
void start_pool_below_client(Report& report) {
  bool niced = false;
  std::thread([&niced] {
    niced = setpriority(PRIO_PROCESS, static_cast<id_t>(gettid()),
                        kWorkerNice) == 0;
    qq::util::ThreadPool::global();
  }).join();
  if (!niced) report.note("could not lower the worker threads' priority");
}

/// Arrival times and request mix draw from separate streams, so request k
/// names the same item whatever --seconds sets the rung lengths to.
std::vector<Arrival> make_schedule(std::uint64_t seed, double seconds) {
  qq::util::Rng timing(input_seed(seed, 0x0be7100bULL, 0));
  qq::util::Rng mix(input_seed(seed, 0x0be7100bULL, 1));
  std::vector<double> zipf_cdf;
  double total = 0.0;
  for (int k = 0; k < kHotItems; ++k) {
    total += 1.0 / std::pow(k + 1.0, kZipfExponent);
    zipf_cdf.push_back(total);
  }
  std::vector<Arrival> schedule;
  int fresh = kHotItems;
  int ordinal = 0;
  double rung_start = 0.0;
  for (std::size_t r = 0; r < kLadder.size(); ++r) {
    const double rung_end = rung_start + kLadder[r].seconds * seconds;
    double t = rung_start;
    for (;;) {
      t += -std::log(1.0 - qq::util::uniform(timing, 0.0, 1.0)) /
           kLadder[r].rate;
      if (t >= rung_end) break;
      Arrival a;
      a.due_s = t;
      a.rung = r;
      a.decomposed = ordinal % 2 == 0;
      a.gold = qq::util::uniform(mix, 0.0, 1.0) < 0.5;
      const bool repeat = (ordinal / 2) % 5 < kRepeatOf5;
      ++ordinal;
      if (repeat) {
        const double u = qq::util::uniform(mix, 0.0, total);
        a.item = std::min<int>(
            kHotItems - 1,
            static_cast<int>(std::upper_bound(zipf_cdf.begin(), zipf_cdf.end(),
                                              u) -
                             zipf_cdf.begin()));
      } else {
        a.item = fresh++;
      }
      schedule.push_back(a);
    }
    rung_start = rung_end;
  }
  return schedule;
}

/// The (graph, seed) item a request names: decomposed ER(200, 0.1) solves
/// at 12 qubits or direct ER(10..14, 0.5) solves.
Graph item_graph(std::uint64_t seed, bool decomposed, int item, bool smoke) {
  if (decomposed) {
    qq::util::Rng rng(input_seed(seed, 0xd200ULL, static_cast<std::uint64_t>(item)));
    return qq::graph::erdos_renyi(smoke ? 100 : 200, 0.1, rng);
  }
  qq::util::Rng rng(input_seed(seed, 0x5140ULL, static_cast<std::uint64_t>(item)));
  return qq::graph::erdos_renyi(10 + item % 5, 0.5, rng);
}

std::uint64_t item_seed(std::uint64_t seed, bool decomposed, int item) {
  return input_seed(seed, decomposed ? 0xd5eedULL : 0x55eedULL,
                    static_cast<std::uint64_t>(item));
}

ServiceOptions openloop_service_options() {
  ServiceOptions options = service_options();
  options.classes = {{"gold", 3.0, kClassMaxInFlight},
                     {"bronze", 1.0, kClassMaxInFlight}};
  options.max_in_flight_requests = 2 * kClassMaxInFlight;
  return options;
}

struct Pending {
  OpenRecord record;
  Graph graph;
  RequestTicket ticket;
};

/// Settles `p` into `out`: recounts the cut on the request's own graph.
void settle(Pending& p, double start, std::vector<OpenRecord>& out) {
  OpenRecord& r = p.record;
  const RequestOutcome outcome = p.ticket.outcome();
  r.start_abs_s = start;
  r.status = outcome.status;
  r.engine_tasks = outcome.engine_tasks;
  r.service_latency_s = outcome.latency_seconds;
  if (outcome.status == RequestStatus::kCompleted) {
    const double returned = start + r.arrival.due_s + r.lateness_s + r.submit_s;
    r.settle_s = returned - start + outcome.latency_seconds;
    r.latency_s = r.settle_s - r.arrival.due_s;
    r.valid = valid_cut(p.graph, outcome.cut);
    r.cut = outcome.cut.value;
    r.cut_hash = assignment_hash(outcome.cut.assignment);
  }
  out.push_back(r);
}

/// Runs the whole schedule against `service` from one client thread.
std::vector<OpenRecord> open_loop(SolveService& service,
                                  const std::vector<Arrival>& schedule,
                                  const Config& config, bool traced) {
  std::vector<OpenRecord> records;
  std::vector<Pending> pending;
  const double start = now_s() + 0.01;
  const auto harvest = [&](bool all) {
    for (std::size_t i = 0; i < pending.size();) {
      if (all || pending[i].ticket.done()) {
        settle(pending[i], start, records);
        pending[i] = std::move(pending.back());
        pending.pop_back();
      } else {
        ++i;
      }
    }
  };
  for (const Arrival& a : schedule) {
    Pending p;
    p.record.arrival = a;
    p.graph = item_graph(config.seed, a.decomposed, a.item, config.smoke);
    p.record.weight = p.graph.total_weight();
    p.record.id = next_request_id();
    ServiceRequest req = make_request(
        p.graph, item_seed(config.seed, a.decomposed, a.item),
        a.decomposed ? kMaxQubits : 0, traced, a.gold ? "gold" : "bronze",
        p.record.id);
    const double due = start + a.due_s;
    const double wait = due - now_s();
    if (wait > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    const double t0 = now_s();
    p.ticket = service.submit(std::move(req));
    p.record.submit_s = now_s() - t0;
    p.record.lateness_s = t0 - due;
    p.record.peak_rss_mb = peak_rss_mb();
    pending.push_back(std::move(p));
    harvest(false);
  }
  service.drain();
  harvest(true);
  std::sort(records.begin(), records.end(),
            [](const OpenRecord& x, const OpenRecord& y) {
              return x.arrival.due_s < y.arrival.due_s;
            });
  return records;
}

struct RungStats {
  double p50 = 0.0;
  double p95 = 0.0;
  /// Requests settled per second while the rung was offered.
  double completed_per_s = 0.0;
  double lateness_p95 = 0.0;  ///< of the generator, seconds
  std::size_t samples = 0;
  bool pass = false;
};

std::vector<RungStats> rung_stats(const std::vector<OpenRecord>& records,
                                  double seconds) {
  std::vector<RungStats> out(kLadder.size());
  double rung_start = 0.0;
  for (std::size_t r = 0; r < kLadder.size(); ++r) {
    const double rung_end = rung_start + kLadder[r].seconds * seconds;
    std::vector<double> lat, late;
    std::size_t completed = 0, backlog = 0;
    for (const OpenRecord& rec : records) {
      if (rec.arrival.rung == r) {
        lat.push_back(rec.latency_s);  // a failed request is +inf: a miss
        late.push_back(rec.lateness_s);
      }
      if (rec.settle_s >= rung_start && rec.settle_s < rung_end) ++completed;
      if (rec.arrival.due_s <= rung_end && rec.settle_s > rung_end) ++backlog;
    }
    RungStats& s = out[r];
    s.samples = lat.size();
    std::sort(lat.begin(), lat.end());
    if (!lat.empty()) {
      s.p50 = lat[lat.size() / 2];
      s.p95 = lat[std::min(lat.size() - 1,
                           static_cast<std::size_t>(0.95 * lat.size()))];
    }
    s.completed_per_s =
        static_cast<double>(completed) / (rung_end - rung_start);
    s.lateness_p95 = percentile_of(late, 95.0);
    // Little's law: a backlog above rate x limit at the rung's end is
    // growing faster than the limit lets it drain.
    s.pass = !lat.empty() && s.p95 <= kSloSeconds &&
             static_cast<double>(backlog) <= kLadder[r].rate * kSloSeconds;
    rung_start = rung_end;
  }
  return out;
}

/// Requests settled per second from the moment the saturation rung starts
/// until the backlog has drained, while the engine never runs dry: the
/// median over the whole kSliceSeconds slices of that stretch (a stretch
/// shorter than one slice, as in a smoke run, is one slice).
double saturated_throughput(const std::vector<OpenRecord>& records,
                            double seconds) {
  double start = 0.0;
  for (std::size_t r = 0; r < kSaturationRung; ++r) {
    start += kLadder[r].seconds * seconds;
  }
  double last = start;
  for (const OpenRecord& rec : records) {
    if (std::isfinite(rec.settle_s)) last = std::max(last, rec.settle_s);
  }
  const double slice = std::min(kSliceSeconds, last - start);
  if (slice <= 0.0) return 0.0;
  const auto slices = static_cast<std::size_t>((last - start) / slice);
  std::vector<double> rates(slices, 0.0);
  for (const OpenRecord& rec : records) {
    if (rec.settle_s < start || !std::isfinite(rec.settle_s)) continue;
    const auto k = static_cast<std::size_t>((rec.settle_s - start) / slice);
    if (k < slices) rates[k] += 1.0 / slice;
  }
  return median_of(rates);
}

double max_rps_within_slo(const std::vector<RungStats>& rungs) {
  double best = 0.0;
  for (std::size_t r = 0; r < rungs.size() && rungs[r].pass; ++r) {
    best = kLadder[r].rate;
  }
  return best;
}

/// Checks every open-loop run makes, on either pass.
void check_open_loop(Report& report, const std::vector<OpenRecord>& records,
                     std::size_t scheduled, const ServiceStats& before,
                     const ServiceStats& after) {
  report.check(records.size() == scheduled,
               "every scheduled request was submitted and harvested");
  std::map<std::pair<bool, int>, std::pair<double, std::uint64_t>> seen;
  std::vector<double> lateness;
  std::size_t completed = 0;
  std::map<std::string, std::size_t> bad;  // by status
  for (const OpenRecord& r : records) {
    ++report.attempted;
    lateness.push_back(r.lateness_s);
    const bool ok = r.status == RequestStatus::kCompleted && r.valid;
    if (!ok) {
      ++report.failed;
      ++bad[r.status == RequestStatus::kCompleted
                ? "invalid cut"
                : qq::service::request_status_name(r.status)];
      continue;
    }
    ++completed;
    const auto key = std::make_pair(r.arrival.decomposed, r.arrival.item);
    const auto [it, inserted] =
        seen.emplace(key, std::make_pair(r.cut, r.cut_hash));
    if (!inserted && (it->second.first != r.cut ||
                      it->second.second != r.cut_hash)) {
      ++report.failed;
      report.check(false, "repeated (graph, seed) pair " +
                              std::to_string(r.arrival.item) +
                              " returned an identical cut");
    }
  }
  for (const auto& [status, count] : bad) {
    report.check(false, std::to_string(count) + " requests ended " + status);
  }
  const std::size_t settled =
      (after.completed - before.completed) +
      (after.cancelled - before.cancelled) + (after.failed - before.failed) +
      (after.rejected - before.rejected);
  report.check(after.in_flight == 0 && settled == scheduled &&
                   after.completed - before.completed == completed,
               "every admitted request settled exactly once");
  const double late_p95 = percentile_of(lateness, 95.0);
  char what[128];
  std::snprintf(what, sizeof(what),
                "generator lateness p95 %.3f ms is within %.0f ms",
                late_p95 * 1e3, kMaxLatenessS * 1e3);
  report.check(late_p95 <= kMaxLatenessS, what);
  char line[160];
  std::snprintf(line, sizeof(line),
                "requests %zu, repeated (graph, seed) pairs %zu, generator "
                "lateness p95 %.3f ms",
                records.size(), completed - seen.size(), late_p95 * 1e3);
  report.note(line);
}

/// Runs one warm-up request of each kind on the same inputs whatever the
/// run's seed: the cost of a decomposed solve depends on how its graph
/// partitions, and made setup_s differ by 1.6x between seeds. Their solve
/// seeds are not the schedule's, so a timed request never hits their
/// cache entries.
void open_warm_up(SolveService& service, const Config& config, bool traced,
                  Report& report) {
  constexpr std::uint64_t kWarmUpSeed = 0;
  for (const bool decomposed : {true, false}) {
    const Graph g = item_graph(kWarmUpSeed, decomposed, 0, config.smoke);
    solve_and_wait(service,
                   make_request(g, ~item_seed(kWarmUpSeed, decomposed, 0),
                                decomposed ? kMaxQubits : 0, traced, "gold"),
                   report);
  }
}

}  // namespace

Report run_service_openloop(const Config& config) {
  Report report;
  start_pool_below_client(report);
  const double seconds = config.traced ? config.seconds / 2 : config.seconds;
  const std::vector<Arrival> schedule = make_schedule(config.seed, seconds);
  double setup_s = 0.0;
  if (config.traced) register_timed_solvers();
  const auto make_service = [&](bool traced) {
    auto s = std::make_unique<SolveService>(openloop_service_options());
    open_warm_up(*s, config, traced, report);
    // Quiescence, not just settled tickets: the counters the run's
    // settled-exactly-once check diffs must include the warm-up requests.
    s->drain();
    return s;
  };
  std::unique_ptr<SolveService> service =
      timed_setup(config.traced, setup_s, [&] { return make_service(false); });

  const ServiceStats plain_before = service->stats();
  const std::vector<OpenRecord> plain =
      open_loop(*service, schedule, config, false);
  check_open_loop(report, plain, schedule.size(), plain_before,
                  service->stats());
  const std::vector<RungStats> plain_rungs = rung_stats(plain, seconds);
  std::vector<double> cuts;
  for (const OpenRecord& r : plain) cuts.push_back(r.cut);
  check_golden(report, config, "service_openloop", cuts, 50);
  for (std::size_t r = 0; r < kLadder.size(); ++r) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "rung %.0f/s: %zu requests, p50 %.4f s, p95 %.4f s, "
                  "completed %.1f/s, lateness p95 %.2f ms, %s",
                  kLadder[r].rate, plain_rungs[r].samples, plain_rungs[r].p50,
                  plain_rungs[r].p95, plain_rungs[r].completed_per_s,
                  plain_rungs[r].lateness_p95 * 1e3,
                  plain_rungs[r].pass ? "within limit" : "over limit");
    report.note(line);
  }

  if (!config.traced) {
    const RungStats& ref = plain_rungs[kReferenceRung];
    double cut = 0, weight = 0, rss = 0;
    for (const OpenRecord& r : plain) {
      cut += r.cut;
      weight += r.weight;
      // Memory through the reference rung: the backlog the rungs above
      // build grows with how slow the host is.
      if (r.arrival.rung == kReferenceRung) rss = std::max(rss, r.peak_rss_mb);
    }
    auto& m = report.metrics;
    m["setup_s"] = setup_s;
    m["latency_p50_s"] = ref.p50;
    m["latency_tail_s"] = ref.p95;
    m["throughput_per_s"] = saturated_throughput(plain, seconds);
    m["cut_fraction"] = cut / weight;
    m["peak_rss_mb"] = rss;
    return report;
  }

  // Traced run: the same schedule again through the decorated specs, on a
  // fresh service so both passes start from an empty cache.
  service.reset();
  service = make_service(true);
  span_log().take();
  const ServiceStats before = service->stats();
  const std::vector<OpenRecord> traced =
      open_loop(*service, schedule, config, true);
  const std::vector<LeafSpan> spans = span_log().take();
  const ServiceStats after = service->stats();
  check_open_loop(report, traced, schedule.size(), before, after);
  for (std::size_t i = 0; i < traced.size() && i < plain.size(); ++i) {
    if (traced[i].cut != plain[i].cut ||
        traced[i].cut_hash != plain[i].cut_hash) {
      report.check(false, "traced request " + std::to_string(i) +
                              " is bit-identical to the untraced request");
    }
  }
  const std::vector<RungStats> traced_rungs = rung_stats(traced, seconds);

  auto& m = report.metrics;
  double completed = 0, tasks = 0, serial = 0, decomposed = 0;
  std::vector<double> submit_us;
  std::map<std::int64_t, std::vector<std::pair<double, double>>> by_request;
  for (const LeafSpan& s : spans) {
    by_request[s.parent].emplace_back(s.start_s, s.end_s);
  }
  std::vector<double> unions, walls;
  for (const OpenRecord& r : traced) {
    submit_us.push_back(r.submit_s * 1e6);
    if (r.status != RequestStatus::kCompleted) continue;
    ++completed;
    tasks += r.engine_tasks;
    if (r.arrival.decomposed) {
      ++decomposed;
      const double covered = union_seconds(by_request[r.id]);
      unions.push_back(covered);
      walls.push_back(r.service_latency_s);
      serial += r.service_latency_s - covered;
    }
  }
  m["trace.overhead_frac"] =
      traced_rungs[kReferenceRung].p50 / plain_rungs[kReferenceRung].p50;
  m["service.submit_us_p50"] = median_of(submit_us);
  m["service.max_rps_within_slo"] = max_rps_within_slo(plain_rungs);
  double gold_busy = 0, bronze_busy = 0;
  for (std::size_t c = 0; c < after.classes.size(); ++c) {
    const double busy =
        after.classes[c].busy_seconds - before.classes[c].busy_seconds;
    (after.classes[c].name == "gold" ? gold_busy : bronze_busy) += busy;
  }
  m["service.fair_ratio"] = bronze_busy > 0 ? gold_busy / bronze_busy : 0.0;
  add_service_counters(report, before, after, completed);
  m["sched.tasks_per_solve"] = tasks / completed;
  m["qaoa2.serial_s"] = decomposed > 0 ? serial / decomposed : 0.0;
  add_leaf_metrics(report, spans, completed);
  add_leaf_replays(report, spans, leaf_qaoa(), 16);

  // Level-0 replays on the first decomposed request of the schedule.
  const auto first = std::find_if(
      traced.begin(), traced.end(),
      [](const OpenRecord& r) { return r.arrival.decomposed; });
  if (first != traced.end()) {
    const Graph g = item_graph(config.seed, true, first->arrival.item,
                               config.smoke);
    qq::maxcut::CutResult cut;
    {
      ServiceRequest req = make_request(
          g, item_seed(config.seed, true, first->arrival.item), kMaxQubits,
          false, "gold");
      cut = solve_and_wait(*service, std::move(req), report);
    }
    double hit_term = 0.0;
    const double replayed_serial = add_level0_replays(
        report, g, item_seed(config.seed, true, first->arrival.item), cut,
        &hit_term);
    std::vector<double> coverage;
    for (std::size_t i = 0; i < unions.size(); ++i) {
      coverage.push_back(
          std::min(1.0, (unions[i] + replayed_serial) / walls[i]));
    }
    m["trace.coverage_frac"] = median_of(coverage);
    add_kernel_replays(report, g, leaf_qaoa().layers);
  }

  std::vector<TraceEvent> events;
  for (const OpenRecord& r : traced) {
    if (r.status != RequestStatus::kCompleted) continue;
    TraceEvent e;
    e.name = r.arrival.decomposed ? "request.decomposed" : "request.direct";
    e.category = r.arrival.gold ? "gold" : "bronze";
    e.start_s = r.start_abs_s + r.settle_s - r.service_latency_s;
    e.dur_s = r.service_latency_s;
    e.args = "\"id\": " + std::to_string(r.id);
    events.push_back(std::move(e));
  }
  add_span_events(events, spans);
  write_trace(report, config, "service_openloop", events);
  return report;
}

}  // namespace e2e
