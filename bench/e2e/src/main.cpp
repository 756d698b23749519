// qq_e2e: the end-to-end QAOA^2 benchmark driver (README.md). One process
// runs one workload and prints every metric by name with its unit, then
// one JSON result line:
//
//   qq_e2e --workload W [--seed S] [--seconds T] [--trace 0|1] [--smoke]
//          [--golden FILE] [--trace-dir DIR]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when a correctness check fails, 2 on a usage error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <utility>

#include "common.hpp"
#include "e2e.hpp"
#include "util/thread_pool.hpp"

namespace e2e {

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"latency_p50_s", "s"},
    {"latency_tail_s", "s"},
    {"throughput_per_s", "1/s"},
    {"cut_fraction", "ratio"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"service.submit_us_p50", "us"},
    {"service.queue_wait_s_per_req", "s"},
    {"service.busy_s_per_req", "s"},
    {"service.rejected_frac", "ratio"},
    {"service.fair_ratio", "ratio"},
    {"service.max_rps_within_slo", "1/s"},
    {"cache.hit_ratio", "ratio"},
    {"cache.misses", "count"},
    {"cache.coalesced", "count"},
    {"cache.fingerprint_us_mean", "us"},
    {"cache.hit_us_mean", "us"},
    {"qgraph.partition_s", "s"},
    {"qgraph.extract_s", "s"},
    {"qgraph.parts", "count"},
    {"qgraph.part_max", "count"},
    {"sched.tasks_per_solve", "count"},
    {"sched.queue_wait_s_per_solve", "s"},
    {"sched.busy_quantum_s", "s"},
    {"sched.busy_classical_s", "s"},
    {"sched.coordination_s", "s"},
    {"solver.sub.count", "count"},
    {"solver.sub.s_sum", "s"},
    {"solver.sub.s_p50", "s"},
    {"solver.coarse.count", "count"},
    {"solver.coarse.s_sum", "s"},
    {"solver.coarse.s_p50", "s"},
    {"solver.leaf_inflation", "ratio"},
    {"qaoa2.serial_s", "s"},
    {"qaoa2.merge_us", "us"},
    {"qaoa2.levels", "count"},
    {"qaoa2.subgraphs", "count"},
    {"qaoa.evals_per_leaf", "count"},
    {"qaoa.cut_table_us", "us"},
    {"optim.overhead_frac", "ratio"},
    {"qsim.12x1.cost_sweep_us", "us"},
    {"qsim.12x1.mixer_us", "us"},
    {"qsim.12x1.expect_us", "us"},
    {"qsim.12x1.bytes_per_eval", "B"},
    {"qsim.12x1.gbps", "GB/s"},
    {"qsim.16x16.cost_sweep_us", "us"},
    {"qsim.16x16.mixer_us", "us"},
    {"qsim.16x16.expect_us", "us"},
    {"qsim.16x16.bytes_per_eval", "B"},
    {"qsim.16x16.gbps", "GB/s"},
    {"trace.overhead_frac", "ratio"},
    {"trace.coverage_frac", "ratio"},
};

}  // namespace e2e

namespace {

/// Measured on the reference VM: after 20 s idle, the first 1-1.5 s of
/// load ran at up to 10x the latency; a 1.5 s spin beforehand removed it.
constexpr double kSpinUpSeconds = 1.5;

int usage(const char* problem) {
  std::fprintf(stderr,
               "qq_e2e: %s\nusage: qq_e2e --workload "
               "fig4_er500|er1000_warm|pp16_r16|service_openloop [--seed S] "
               "[--seconds T] [--trace 0|1] [--smoke] [--golden FILE] "
               "[--trace-dir DIR]\n",
               problem);
  return 2;
}

bool parse_number(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return !text.empty() && end == text.c_str() + text.size() &&
         std::isfinite(out);
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      config.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--golden") {
      config.golden_path = value;
    } else if (flag == "--trace-dir") {
      config.trace_dir = value;
    } else if (!parse_number(value, number) || number < 0) {
      return usage(("bad value '" + value + "' for " + flag).c_str());
    } else if (flag == "--seed") {
      config.seed = static_cast<std::uint64_t>(number);
    } else if (flag == "--seconds") {
      config.seconds = number;
    } else if (flag == "--trace" && (number == 0 || number == 1)) {
      config.traced = number == 1;
    } else {
      return usage(("unknown flag or value: " + flag + " " + value).c_str());
    }
  }

  using RunFn = e2e::Report (*)(const e2e::Config&);
  const std::pair<const char*, RunFn> workloads[] = {
      {"fig4_er500", e2e::run_fig4_er500},
      {"er1000_warm", e2e::run_er1000_warm},
      {"pp16_r16", e2e::run_pp16_r16},
      {"service_openloop", e2e::run_service_openloop},
  };
  RunFn run = nullptr;
  for (const auto& [name, fn] : workloads) {
    if (config.workload == name) run = fn;
  }
  if (run == nullptr) {
    return usage(("unknown workload '" + config.workload + "'").c_str());
  }

  e2e::Report report;
  const e2e::CpuTicks ticks0 = e2e::read_cpu_ticks();
  // A smoke run checks outputs, not timings, and must stay short.
  if (!config.smoke) e2e::spin_up_cpus(kSpinUpSeconds);
  try {
    report = run(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qq_e2e: %s failed: %s\n", config.workload.c_str(),
                 e.what());
    return 1;
  }

  const std::vector<e2e::MetricSpec>& table =
      config.traced ? e2e::kPerLayer : e2e::kEndToEnd;
  for (const auto& [name, value] : report.metrics) {
    bool known = false;
    for (const e2e::MetricSpec& spec : table) known |= name == spec.name;
    report.check(known, "metric " + name + " is in the " +
                            (config.traced ? "per-layer" : "end-to-end") +
                            " table");
  }
  // Steal is CPU time the hypervisor gave other guests: the share of the
  // run's time the host, not the program, took (README "Noise").
  const e2e::CpuTicks ticks1 = e2e::read_cpu_ticks();
  const double ticks = ticks1.total - ticks0.total;
  std::printf(
      "workload %s seed %llu%s%s, nproc %u, pool threads %zu, host steal "
      "%.1f%%\n",
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      config.traced ? " traced" : "", config.smoke ? " smoke" : "",
      std::thread::hardware_concurrency(),
      qq::util::ThreadPool::global().size(),
      ticks > 0 ? 100.0 * (ticks1.steal - ticks0.steal) / ticks : 0.0);
  for (const std::string& note : report.notes) {
    std::printf("  %s\n", note.c_str());
  }
  std::string json_metrics;
  for (const e2e::MetricSpec& spec : table) {
    const auto it = report.metrics.find(spec.name);
    // A layer a workload never enters reads 0; an end-to-end metric is
    // never missing.
    report.check(config.traced || it != report.metrics.end(),
                 std::string("metric ") + spec.name + " was measured");
    const double value = it == report.metrics.end() ? 0.0 : it->second;
    report.check(std::isfinite(value),
                 std::string("metric ") + spec.name + " is finite");
    const double shown = std::isfinite(value) ? value : 0.0;
    std::printf("  %-30s %16.6g %s\n", spec.name, shown, spec.unit);
    char entry[192];
    std::snprintf(entry, sizeof(entry),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json_metrics.empty() ? "" : ", ", spec.name, shown,
                  spec.unit);
    json_metrics += entry;
  }
  for (const std::string& failure : report.failures) {
    std::printf("  CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      report.correct ? "true" : "false",
      static_cast<long long>(report.attempted),
      static_cast<long long>(report.failed), json_metrics.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
