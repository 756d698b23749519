#include "fuzz/fuzzer.hpp"

#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "fuzz/case_io.hpp"
#include "util/timer.hpp"

namespace qq::fuzz {

namespace {

/// Coverage key for a spec: the leaf solver name, or "best" for a
/// combinator ("anneal:sweeps=10" -> "anneal").
std::string spec_head(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  return colon == std::string::npos ? spec : spec.substr(0, colon);
}

std::string clip(const std::string& s, std::size_t max = 80) {
  if (s.size() <= max) return s;
  return s.substr(0, max) + "...(" + std::to_string(s.size()) + " chars)";
}

void write_artifacts(const FuzzOptions& options, const Finding& finding,
                     std::ostream* log) {
  if (options.artifact_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(options.artifact_dir, ec);
  std::vector<std::string> comments;
  comments.push_back("campaign seed " + std::to_string(finding.campaign_seed));
  for (const Violation& v : finding.violations) {
    comments.push_back("violated: [" + v.oracle + "] " + clip(v.details, 200));
  }
  const std::string stem =
      options.artifact_dir + "/case-" + std::to_string(finding.campaign_seed);
  {
    std::ofstream out(stem + ".case");
    out << to_case_file(finding.scenario, comments);
  }
  {
    std::ofstream out(stem + ".cpp");
    out << reproducer_snippet(finding.scenario, finding.violations);
  }
  if (log) *log << "  wrote " << stem << ".case / .cpp\n";
}

}  // namespace

FuzzReport run_fuzz(const FuzzOptions& options, std::ostream* log) {
  FuzzReport report;
  util::Timer timer;
  util::Rng malformed_rng(options.seed_begin ^ 0xbadc0ffee0ddf00dULL);
  for (int i = 0; i < options.seeds; ++i) {
    if (options.wall_budget_seconds > 0.0 &&
        timer.seconds() > options.wall_budget_seconds) {
      report.time_exhausted = true;
      if (log) {
        *log << "time budget exhausted after " << report.scenarios_run
             << " scenarios\n";
      }
      break;
    }
    const std::uint64_t seed = options.seed_begin + static_cast<std::uint64_t>(i);
    Scenario scenario = make_scenario(seed);
    ++report.scenarios_run;
    ++report.family_counts[scenario.family];
    ++report.spec_counts[spec_head(scenario.spec)];
    if (options.verbose && log) {
      *log << "seed " << seed << ": " << probe_kind_name(scenario.kind) << ' '
           << scenario.family << " n=" << scenario.graph.num_nodes()
           << " m=" << scenario.graph.num_edges() << " spec="
           << clip(scenario.spec) << '\n';
    }
    std::vector<Violation> violations = check_scenario(scenario, options.oracle);
    if (!violations.empty()) {
      Finding finding;
      finding.campaign_seed = seed;
      if (options.reduce_failures) {
        ReduceOptions ropts;
        ropts.oracle = options.oracle;
        ropts.max_checks = options.reduce_max_checks;
        ReducedCase reduced = reduce(scenario, ropts);
        finding.scenario = reduced.scenario;
        finding.violations = reduced.violations;
        finding.shrunk = reduced.shrunk;
      } else {
        finding.scenario = std::move(scenario);
        finding.violations = std::move(violations);
      }
      if (log) {
        *log << "FINDING at seed " << seed << " (family "
             << finding.scenario.family << ", n="
             << finding.scenario.graph.num_nodes() << ", m="
             << finding.scenario.graph.num_edges()
             << (finding.shrunk ? ", shrunk" : "") << "):\n"
             << format_violations(finding.violations);
      }
      write_artifacts(options, finding, log);
      report.findings.push_back(std::move(finding));
    }
    // Interleave "must throw, never crash" grammar probes.
    for (int p = 0; p < options.malformed_per_seed; ++p) {
      const std::string bad = random_malformed_spec(malformed_rng);
      ++report.malformed_probes;
      std::vector<Violation> guard = check_malformed_spec(bad);
      if (!guard.empty()) {
        Finding finding;
        finding.campaign_seed = seed;
        finding.scenario.family = "malformed_spec";
        finding.scenario.spec = bad;
        finding.violations = std::move(guard);
        if (log) {
          *log << "FINDING at seed " << seed << " (malformed spec "
               << clip(bad) << "):\n"
               << format_violations(finding.violations);
        }
        report.findings.push_back(std::move(finding));
      }
    }
  }
  report.wall_seconds = timer.seconds();
  return report;
}

std::vector<Violation> replay_case(const std::string& path,
                                   const OracleOptions& options,
                                   std::ostream* log) {
  const Scenario scenario = load_case_file(path);
  if (log) {
    *log << "replay " << path << ": " << probe_kind_name(scenario.kind)
         << " n=" << scenario.graph.num_nodes() << " m="
         << scenario.graph.num_edges() << " spec=" << clip(scenario.spec)
         << '\n';
  }
  std::vector<Violation> violations = check_scenario(scenario, options);
  if (log) {
    if (violations.empty()) {
      *log << "  clean\n";
    } else {
      *log << format_violations(violations);
    }
  }
  return violations;
}

std::string summarize_report(const FuzzReport& report) {
  std::ostringstream os;
  os << "fuzz: " << report.scenarios_run << " scenarios, "
     << report.malformed_probes << " malformed-spec probes, "
     << report.findings.size() << " finding(s) in " << report.wall_seconds
     << "s" << (report.time_exhausted ? " (time budget hit)" : "") << '\n';
  os << "  families:";
  for (const auto& [family, count] : report.family_counts) {
    os << ' ' << family << '=' << count;
  }
  os << '\n' << "  specs:";
  for (const auto& [head, count] : report.spec_counts) {
    os << ' ' << head << '=' << count;
  }
  os << '\n';
  return os.str();
}

}  // namespace qq::fuzz
