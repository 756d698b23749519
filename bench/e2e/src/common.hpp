#pragma once
// Helpers shared by the workloads: timing summaries, set-up repetition,
// the golden sum-of-cuts check, and process memory.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "e2e.hpp"
#include "service/service.hpp"
#include "trace.hpp"

namespace e2e {

/// An untraced run sets up at least kSetupReps times and until
/// kSetupSeconds have passed, at most kMaxSetupReps times; setup_s is the
/// median, so neither a one-off process cost (first page faults, pool
/// start) nor a short stall of the host moves it. A set-up of a few
/// milliseconds thus gets enough repetitions for a steady median. The
/// traced run sets up once.
inline constexpr int kSetupReps = 3;
inline constexpr int kMaxSetupReps = 25;
inline constexpr double kSetupSeconds = 1.0;

double median_of(std::vector<double> xs);
/// Linear-interpolated percentile, q in [0, 100]; 0 for an empty sample.
double percentile_of(std::vector<double> xs, double q);

/// Keeps every hardware thread busy for `seconds` before set-up starts. On
/// the reference VM a CPU that sat idle for a while runs several times
/// slower for about a second once load returns; without this the first
/// second of a run measures the host, not the program (README "Noise").
void spin_up_cpus(double seconds);

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

/// Machine-wide CPU time counters of /proc/stat, in clock ticks; zero
/// where the file is unreadable.
struct CpuTicks {
  double steal = 0.0;  ///< time the hypervisor ran other guests instead
  double total = 0.0;
};
CpuTicks read_cpu_ticks();

/// Total length of the union of [start, end] intervals.
double union_seconds(std::vector<std::pair<double, double>> intervals);

/// Runs `make` once when `traced`, else as often as kSetupReps and
/// kSetupSeconds ask, destroying the previous state before building the
/// next, and stores the median build time in `setup_s`.
template <typename Make>
auto timed_setup(bool traced, double& setup_s, Make make) {
  decltype(make()) state{};
  std::vector<double> times;
  const double start = now_s();
  for (int r = 0; r < (traced ? 1 : kMaxSetupReps); ++r) {
    if (r >= kSetupReps && now_s() - start >= kSetupSeconds) break;
    state = {};
    const double t0 = now_s();
    state = make();
    times.push_back(now_s() - t0);
  }
  setup_s = median_of(times);
  return state;
}

/// Golden check at the default seed: the sum of the first N cuts of the
/// run must equal the value recorded in the golden table for (workload,
/// mode); N is recorded with it. Also notes the line that would record
/// the current value, with `prefix` cuts.
void check_golden(Report& report, const Config& config,
                  const std::string& workload, const std::vector<double>& cuts,
                  int prefix);

/// service.* and cache.* from the change of ServiceStats across a pass of
/// `requests` settled requests.
void add_service_stats(Report& report, const qq::service::ServiceStats& before,
                       const qq::service::ServiceStats& after,
                       double requests);

/// Appends the leaf spans to `events` on their worker threads.
void add_span_events(std::vector<TraceEvent>& events,
                     const std::vector<LeafSpan>& spans);

/// Writes the traced run's events to <trace_dir>/<workload>-seed<S>.json
/// and notes where; a failure to write fails the run.
void write_trace(Report& report, const Config& config,
                 const std::string& workload,
                 const std::vector<TraceEvent>& events);

/// The assignment covers every node of `g` and maxcut::cut_value recounts
/// exactly the reported value.
bool valid_cut(const qq::graph::Graph& g, const qq::maxcut::CutResult& cut);

/// Seed of input `index` of a workload's stream: every input is a pure
/// function of (run seed, workload salt, index).
std::uint64_t input_seed(std::uint64_t seed, std::uint64_t salt,
                         std::uint64_t index);

/// FNV-1a hash of an assignment (equality checks on repeated requests).
std::uint64_t assignment_hash(const std::vector<std::uint8_t>& assignment);

}  // namespace e2e
