// Closed-loop Qaoa2Driver::solve workloads: fig4_er500 and pp16_r16
// (README "Workloads"). One client thread solves a fresh graph, waits for
// the cut, and solves the next.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "e2e.hpp"
#include "qaoa2/qaoa2.hpp"
#include "qgraph/generators.hpp"
#include "replay.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace e2e {

namespace {

using qq::graph::Graph;
using qq::qaoa2::Qaoa2Driver;
using qq::qaoa2::Qaoa2Options;
using qq::qaoa2::Qaoa2Result;

/// latency_tail_s: p90 has at least ten samples beyond it on fig4_er500;
/// pp16_r16 fits about 16 solves and notes its count.
constexpr double kTailPercentile = 90.0;
constexpr std::uint64_t kWarmUpSeed = 0;

struct DriverWorkload {
  std::string name;
  Qaoa2Options options;
  /// The sub role's QAOA configuration, spelled out for the solo replays
  /// (it must equal what options.sub_solver_spec builds).
  qq::qaoa::QaoaOptions leaf_qaoa;
  /// One input graph from its stream seed.
  std::function<Graph(std::uint64_t stream_seed)> generate;
  std::uint64_t salt = 0;  ///< names the workload's input stream
  /// Every run makes at least this many solves; peak_rss_mb is read after
  /// the last of them, so it does not grow with how many solves a run fits.
  int min_solves = 3;
  int golden_prefix = 2;
  int solo_replays = 8;
  int service_replays = 1;

  /// Graph `index` of the run's input stream, from 1. Index 0 is the
  /// warm-up's and comes from a fixed seed: the warm-up solve's cost
  /// depends on its graph, and moved setup_s by up to 2x between seeds.
  Graph graph(int index) const {
    return generate(
        input_seed(index == 0 ? kWarmUpSeed : options.seed, salt, index));
  }
};

struct SolveRecord {
  double start_s = 0.0;
  double latency_s = 0.0;
  double weight = 0.0;
  double peak_rss_mb = 0.0;  ///< of the process, once this solve returned
  Qaoa2Result result;
};

Qaoa2Options traced_options(Qaoa2Options options) {
  options.sub_solver_spec = timed_spec(Role::kSub, options.sub_solver_spec);
  options.deeper_solver_spec =
      timed_spec(Role::kCoarse, options.deeper_solver_spec);
  options.merge_solver_spec =
      timed_spec(Role::kCoarse, options.merge_solver_spec);
  return options;
}

/// Solves graphs 1, 2, ... until `seconds` have passed and at least
/// `min_solves` are done, or exactly `count` graphs when count > 0.
std::vector<SolveRecord> closed_loop(const Qaoa2Driver& driver,
                                     const DriverWorkload& w, double seconds,
                                     int count, Report& report) {
  std::vector<SolveRecord> records;
  const double start = now_s();
  for (int i = 1;; ++i) {
    if (count > 0 ? i > count
                  : (now_s() - start >= seconds &&
                     static_cast<int>(records.size()) >= w.min_solves)) {
      break;
    }
    const Graph g = w.graph(i);
    span_log().set_parent(i);
    SolveRecord rec;
    rec.start_s = now_s();
    rec.result = driver.solve(g);
    rec.latency_s = now_s() - rec.start_s;
    rec.peak_rss_mb = peak_rss_mb();
    rec.weight = g.total_weight();
    const bool ok = valid_cut(g, rec.result.cut) &&
                    !rec.result.level_stats.empty();
    report.check(ok, "solve " + std::to_string(i) +
                         ": the assignment covers the graph, its recounted "
                         "cut equals the reported value, level stats present");
    ++report.attempted;
    if (!ok) ++report.failed;
    records.push_back(std::move(rec));
  }
  return records;
}

void add_end_to_end(Report& report, const std::vector<SolveRecord>& records,
                    const DriverWorkload& w, double setup_s) {
  std::vector<double> latencies;
  double cut = 0.0, weight = 0.0, busy = 0.0;
  for (const SolveRecord& r : records) {
    latencies.push_back(r.latency_s);
    cut += r.result.cut.value;
    weight += r.weight;
    busy += r.latency_s;
  }
  report.metrics["setup_s"] = setup_s;
  report.metrics["latency_p50_s"] = median_of(latencies);
  report.metrics["latency_tail_s"] = percentile_of(latencies, kTailPercentile);
  report.metrics["throughput_per_s"] =
      busy > 0.0 ? static_cast<double>(records.size()) / busy : 0.0;
  report.metrics["cut_fraction"] = weight > 0.0 ? cut / weight : 0.0;
  report.metrics["peak_rss_mb"] =
      records[static_cast<std::size_t>(w.min_solves - 1)].peak_rss_mb;
  char line[160];
  std::snprintf(line, sizeof(line),
                "samples %zu solves; latency_tail_s is p%.0f (%.1f samples "
                "beyond it)",
                records.size(), kTailPercentile,
                static_cast<double>(records.size()) *
                    (100.0 - kTailPercentile) / 100.0);
  report.note(line);
}

std::vector<double> cuts_of(const std::vector<SolveRecord>& records) {
  std::vector<double> cuts;
  for (const SolveRecord& r : records) cuts.push_back(r.result.cut.value);
  return cuts;
}

/// The first graphs again through a SolveService set up like the driver,
/// cache off: the admission layer's cost on this workload's own inputs
/// (service.*), and a check that the service returns the driver's cut.
void add_service_replay(Report& report, const DriverWorkload& w,
                        const std::vector<SolveRecord>& plain) {
  qq::service::ServiceOptions options;
  options.engine = w.options.engine;
  options.cache.reset();
  qq::service::SolveService service(options);
  const qq::service::ServiceStats before = service.stats();
  const int count =
      std::min(w.service_replays, static_cast<int>(plain.size()));
  std::vector<double> submit_us;
  for (int i = 1; i <= count; ++i) {
    qq::service::ServiceRequest req;
    req.graph = w.graph(i);
    req.solver_spec = w.options.sub_solver_spec;
    req.deeper_spec = w.options.deeper_solver_spec;
    req.merge_spec = w.options.merge_solver_spec;
    req.max_qubits = w.options.max_qubits;
    req.seed = w.options.seed;
    const double t0 = now_s();
    const qq::service::RequestTicket ticket = service.submit(std::move(req));
    submit_us.push_back((now_s() - t0) * 1e6);
    service.wait(ticket);
    const qq::service::RequestOutcome outcome = ticket.outcome();
    const auto& want = plain[static_cast<std::size_t>(i - 1)].result.cut;
    report.check(outcome.status == qq::service::RequestStatus::kCompleted &&
                     outcome.cut.value == want.value &&
                     outcome.cut.assignment == want.assignment,
                 "service replay of solve " + std::to_string(i) +
                     " returns the driver's cut");
  }
  service.drain();
  add_service_stats(report, before, service.stats(), count);
  report.metrics["service.submit_us_p50"] = median_of(submit_us);
}

/// Per-layer metrics of the traced pass `traced` (the untraced pass
/// `plain` solved the same graphs) plus the replays.
void add_per_layer(Report& report, const Config& config,
                   const DriverWorkload& w,
                   const std::vector<SolveRecord>& plain,
                   const std::vector<SolveRecord>& traced,
                   const std::vector<LeafSpan>& spans) {
  auto& m = report.metrics;
  const double n = static_cast<double>(traced.size());

  // Oracle: the decorator must not change a single bit of any cut.
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const auto& a = plain[i].result.cut;
    const auto& b = traced[i].result.cut;
    report.check(a.value == b.value && a.assignment == b.assignment,
                 "traced solve " + std::to_string(i + 1) +
                     " is bit-identical to the untraced solve");
  }
  std::vector<double> plain_lat, traced_lat;
  for (const SolveRecord& r : plain) plain_lat.push_back(r.latency_s);
  for (const SolveRecord& r : traced) traced_lat.push_back(r.latency_s);
  m["trace.overhead_frac"] = median_of(traced_lat) / median_of(plain_lat);

  // Engine counters straight from Qaoa2Result.
  double tasks = 0, queue_wait = 0, coordination = 0, levels = 0,
         subgraphs = 0, parts = 0, part_max = 0;
  for (const SolveRecord& r : traced) {
    tasks += r.result.engine_tasks;
    queue_wait += r.result.queue_wait_seconds;
    coordination += r.result.coordination_seconds;
    levels += r.result.levels;
    subgraphs += r.result.subgraphs_total;
    parts += r.result.level_stats.front().num_parts;
    part_max += r.result.level_stats.front().largest_part;
  }
  m["sched.tasks_per_solve"] = tasks / n;
  m["sched.queue_wait_s_per_solve"] = queue_wait / n;
  m["sched.coordination_s"] = coordination / n;
  m["qaoa2.levels"] = levels / n;
  m["qaoa2.subgraphs"] = subgraphs / n;
  m["qgraph.parts"] = parts / n;
  m["qgraph.part_max"] = part_max / n;

  // Leaf spans: per-role counts and times, busy time per resource kind,
  // and the solve wall no leaf covers.
  add_leaf_metrics(report, spans, n);
  double busy_q = 0, busy_c = 0;
  std::vector<std::vector<std::pair<double, double>>> per_solve(traced.size());
  for (const LeafSpan& s : spans) {
    (s.quantum ? busy_q : busy_c) += s.end_s - s.start_s;
    if (s.parent >= 1 && s.parent <= static_cast<std::int64_t>(traced.size())) {
      per_solve[static_cast<std::size_t>(s.parent - 1)].emplace_back(s.start_s,
                                                                     s.end_s);
    }
  }
  m["sched.busy_quantum_s"] = busy_q / n;
  m["sched.busy_classical_s"] = busy_c / n;

  std::vector<TraceEvent> events;
  double serial_sum = 0.0;
  std::vector<double> unions, walls;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const double covered = union_seconds(per_solve[i]);
    serial_sum += traced[i].latency_s - covered;
    unions.push_back(covered);
    walls.push_back(traced[i].latency_s);
    TraceEvent e;
    e.name = "solve";
    e.category = "client";
    e.start_s = traced[i].start_s;
    e.dur_s = traced[i].latency_s;
    e.args = "\"id\": " + std::to_string(i + 1);
    events.push_back(std::move(e));
  }
  add_span_events(events, spans);
  m["qaoa2.serial_s"] = serial_sum / n;

  // Replays on the first traced solve's own graph and cut.
  const Graph g1 = w.graph(1);
  const double replay_start = now_s();
  const Level0Replay level0 =
      replay_level0(g1, w.options, traced.front().result.cut.assignment, 3);
  report.check(same_level0(level0.stats, traced.front().result.level_stats.front()),
               "replayed level-0 partition matches Qaoa2Result::level_stats[0]");
  m["qgraph.partition_s"] = level0.partition_s;
  m["qgraph.extract_s"] = level0.component_s + level0.extract_s;
  m["qaoa2.merge_us"] = level0.merge_s * 1e6;
  add_cache_replays(report, level0.leaves);
  add_leaf_replays(report, spans, w.leaf_qaoa, w.solo_replays);

  // Coverage: leaf spans plus the replayed level-0 layers over solve wall.
  const double replayed_serial = level0.component_s + level0.partition_s +
                                 level0.extract_s + level0.merge_s;
  std::vector<double> coverage;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    coverage.push_back(std::min(1.0, (unions[i] + replayed_serial) / walls[i]));
  }
  m["trace.coverage_frac"] = median_of(coverage);

  add_kernel_replays(report, g1, w.leaf_qaoa.layers);
  add_service_replay(report, w, plain);
  TraceEvent replay_event;
  replay_event.name = "replays";
  replay_event.category = "replay";
  replay_event.start_s = replay_start;
  replay_event.dur_s = now_s() - replay_start;
  replay_event.pid = 2;
  events.push_back(std::move(replay_event));
  write_trace(report, config, w.name, events);
}

Report run_driver_workload(const Config& config, const DriverWorkload& w) {
  Report report;
  double setup_s = 0.0;
  // Set-up ends with one whole warm-up solve, so first-call costs (state
  // vectors, pool start) land there. A single leaf solve was tried: it
  // runs on one thread, and setup_s then moved by 1.5x between processes
  // with whichever virtual CPU that thread landed on.
  const std::unique_ptr<Qaoa2Driver> driver =
      timed_setup(config.traced, setup_s, [&] {
        auto d = std::make_unique<Qaoa2Driver>(w.options);
        d->solve(w.graph(0));
        return d;
      });

  if (!config.traced) {
    const std::vector<SolveRecord> records =
        closed_loop(*driver, w, config.seconds, 0, report);
    add_end_to_end(report, records, w, setup_s);
    check_golden(report, config, w.name, cuts_of(records), w.golden_prefix);
    return report;
  }

  // Traced run: an untraced pass for half the time, then the traced
  // decorator over exactly the same graphs.
  const std::vector<SolveRecord> plain =
      closed_loop(*driver, w, config.seconds / 2, 0, report);
  check_golden(report, config, w.name, cuts_of(plain), w.golden_prefix);
  register_timed_solvers();
  const Qaoa2Driver traced_driver(traced_options(w.options));
  span_log().take();
  const std::vector<SolveRecord> traced = closed_loop(
      traced_driver, w, 0.0, static_cast<int>(plain.size()), report);
  const std::vector<LeafSpan> spans = span_log().take();
  add_per_layer(report, config, w, plain, traced, spans);
  return report;
}

}  // namespace

Report run_fig4_er500(const Config& config) {
  DriverWorkload w;
  w.name = "fig4_er500";
  const int nodes = config.smoke ? 120 : 500;
  w.options.max_qubits = 12;
  w.options.sub_solver_spec = "qaoa:p=2,iters=40";
  w.options.deeper_solver_spec = "gw";
  w.options.merge_solver_spec = "gw";
  w.options.engine.quantum_slots = 4;
  w.options.engine.classical_slots = 4;
  w.options.seed = config.seed;
  w.leaf_qaoa.layers = 2;
  w.leaf_qaoa.max_iterations = 40;
  w.salt = 0xf164e500ULL;
  w.generate = [nodes](std::uint64_t stream_seed) {
    qq::util::Rng rng(stream_seed);
    return qq::graph::erdos_renyi(nodes, 0.1, rng);
  };
  w.min_solves = 20;
  w.golden_prefix = 3;
  w.solo_replays = 16;
  w.service_replays = 3;
  return run_driver_workload(config, w);
}

Report run_pp16_r16(const Config& config) {
  DriverWorkload w;
  w.name = "pp16_r16";
  const int block = config.smoke ? 12 : 16;
  const int blocks = config.smoke ? 3 : 2;
  const int restarts = config.smoke ? 4 : 16;
  w.options.max_qubits = block;
  w.options.sub_solver_spec =
      "qaoa:p=2,iters=40,restarts=" + std::to_string(restarts);
  w.options.deeper_solver_spec = "gw";
  w.options.merge_solver_spec = "gw";
  w.options.engine.quantum_slots = 2;
  w.options.engine.classical_slots = 4;
  w.options.seed = config.seed;
  w.leaf_qaoa.layers = 2;
  w.leaf_qaoa.max_iterations = 40;
  w.leaf_qaoa.restarts = restarts;
  w.salt = 0x9916a16ULL;
  w.generate = [block, blocks](std::uint64_t stream_seed) {
    qq::util::Rng rng(stream_seed);
    return qq::graph::planted_partition(blocks, block, 0.6, 0.01, rng);
  };
  // Peak memory climbs by about 24 MiB per solve; in one set of ten runs
  // it spread 0.12 read after eight solves and 0.19 read after four.
  w.min_solves = 8;
  w.golden_prefix = 1;
  w.solo_replays = 1;
  return run_driver_workload(config, w);
}

}  // namespace e2e
