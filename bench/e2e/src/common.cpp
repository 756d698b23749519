#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace e2e {

double median_of(std::vector<double> xs) {
  return xs.empty() ? 0.0 : qq::util::median(std::move(xs));
}

double percentile_of(std::vector<double> xs, double q) {
  return xs.empty() ? 0.0 : qq::util::percentile(std::move(xs), q);
}

void spin_up_cpus(double seconds) {
  const double until = now_s() + seconds;
  std::vector<std::thread> spinners;
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned i = 0; i < n; ++i) {
    spinners.emplace_back([until] {
      volatile std::uint64_t sink = 0;
      while (now_s() < until) {
        for (int k = 0; k < 4096; ++k) sink = sink + static_cast<std::uint64_t>(k);
      }
    });
  }
  for (std::thread& t : spinners) t.join();
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

CpuTicks read_cpu_ticks() {
  CpuTicks ticks;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    double value = 0.0;
    if (!(in >> value)) return {};
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double union_seconds(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double open_start = 0.0;
  double open_end = 0.0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (open && start <= open_end) {
      open_end = std::max(open_end, end);
      continue;
    }
    if (open) total += open_end - open_start;
    open_start = start;
    open_end = end;
    open = true;
  }
  if (open) total += open_end - open_start;
  return total;
}

void check_golden(Report& report, const Config& config,
                  const std::string& workload, const std::vector<double>& cuts,
                  int prefix) {
  const std::string mode = config.smoke ? "smoke" : "full";
  const auto sum_prefix = [&cuts](int n) {
    double sum = 0.0;
    for (int i = 0; i < n && i < static_cast<int>(cuts.size()); ++i) {
      sum += cuts[static_cast<std::size_t>(i)];
    }
    return sum;
  };
  char line[256];
  std::snprintf(line, sizeof(line), "golden %s %s %llu %d %.17g",
                workload.c_str(), mode.c_str(),
                static_cast<unsigned long long>(config.seed), prefix,
                sum_prefix(prefix));
  report.note(line);
  if (config.seed != kDefaultSeed || config.golden_path.empty()) return;

  std::ifstream in(config.golden_path);
  report.check(static_cast<bool>(in),
               "golden table " + config.golden_path + " is readable");
  std::string text;
  while (std::getline(in, text)) {
    if (text.empty() || text[0] == '#') continue;
    std::istringstream fields(text);
    std::string w, m;
    unsigned long long seed = 0;
    int n = 0;
    double expected = 0.0;
    if (!(fields >> w >> m >> seed >> n >> expected)) continue;
    if (w != workload || m != mode || seed != config.seed) continue;
    report.check(static_cast<int>(cuts.size()) >= n,
                 "golden: at least " + std::to_string(n) + " solves ran");
    const double got = sum_prefix(n);
    char what[160];
    std::snprintf(what, sizeof(what),
                  "golden sum of the first %d cuts: %.17g, recorded %.17g", n,
                  got, expected);
    report.check(got == expected, what);
    return;
  }
  report.check(false, "golden table has an entry for " + workload + " " +
                          mode + " at the default seed");
}

void add_service_stats(Report& report, const qq::service::ServiceStats& before,
                       const qq::service::ServiceStats& after,
                       double requests) {
  auto& m = report.metrics;
  double queue_wait = 0, busy = 0;
  for (std::size_t c = 0; c < after.classes.size(); ++c) {
    queue_wait += after.classes[c].queue_wait_seconds -
                  before.classes[c].queue_wait_seconds;
    busy += after.classes[c].busy_seconds - before.classes[c].busy_seconds;
  }
  std::size_t submitted = 0;
  for (const auto& c : after.classes) submitted += c.submitted;
  for (const auto& c : before.classes) submitted -= c.submitted;
  m["service.queue_wait_s_per_req"] = queue_wait / requests;
  m["service.busy_s_per_req"] = busy / requests;
  m["service.rejected_frac"] =
      submitted > 0 ? static_cast<double>(after.rejected - before.rejected) /
                          static_cast<double>(submitted)
                    : 0.0;
  const double hits =
      static_cast<double>(after.cache.hits - before.cache.hits);
  const double misses =
      static_cast<double>(after.cache.misses - before.cache.misses);
  m["cache.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  m["cache.misses"] = misses;
  m["cache.coalesced"] =
      static_cast<double>(after.cache.coalesced - before.cache.coalesced);
}

void add_span_events(std::vector<TraceEvent>& events,
                     const std::vector<LeafSpan>& spans) {
  for (const LeafSpan& s : spans) {
    TraceEvent e;
    e.name = std::string("leaf.") + role_name(s.role);
    e.category = s.quantum ? "quantum" : "classical";
    e.start_s = s.start_s;
    e.dur_s = s.end_s - s.start_s;
    e.tid = s.thread;
    char args[160];
    std::snprintf(args, sizeof(args),
                  "\"parent\": %lld, \"nodes\": %d, \"evaluations\": %d, "
                  "\"cut\": %.17g",
                  static_cast<long long>(s.parent), s.nodes, s.evaluations,
                  s.cut.value);
    e.args = args;
    events.push_back(std::move(e));
  }
}

void write_trace(Report& report, const Config& config,
                 const std::string& workload,
                 const std::vector<TraceEvent>& events) {
  if (config.trace_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(config.trace_dir, ec);
  const std::string path = config.trace_dir + "/" + workload + "-seed" +
                           std::to_string(config.seed) + ".json";
  const bool ok = write_chrome_trace(path, events);
  report.check(ok, "trace written to " + path);
  if (ok) report.note("trace " + path);
}

bool valid_cut(const qq::graph::Graph& g, const qq::maxcut::CutResult& cut) {
  return cut.assignment.size() == static_cast<std::size_t>(g.num_nodes()) &&
         qq::maxcut::cut_value(g, cut.assignment) == cut.value;
}

std::uint64_t input_seed(std::uint64_t seed, std::uint64_t salt,
                         std::uint64_t index) {
  qq::util::SplitMix64 sm(seed ^ salt ^ (0x9e3779b97f4a7c15ULL * (index + 1)));
  return sm.next();
}

std::uint64_t assignment_hash(const std::vector<std::uint8_t>& assignment) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : assignment) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace e2e
