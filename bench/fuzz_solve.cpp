// fuzz_solve: adversarial scenario fuzzer for the solver registry and the
// QAOA^2 pipeline (ROADMAP item 5; see DESIGN.md "Fuzzing & invariant
// oracles").
//
// Campaign mode (default): generate `--seeds` scenarios starting at
// `--seed-begin`, run the invariant-oracle battery on each, interleave
// malformed-spec "must throw" probes, shrink failures, and (with
// `--artifacts DIR`) write reproducer .case/.cpp files. Exits 1 when any
// finding survives.
//
// Replay mode: `--replay FILE` or `--replay-dir DIR` re-runs committed
// reproducer cases through the same oracles — the corpus regression used
// by `ctest -L corpus`.
//
// Service mode: `--service` storms a live SolveService with seeded
// concurrent request mixes and mid-flight cancellations, checking the
// terminal_once / typed_reject / recount / stats_balance oracles
// (src/fuzz/service_fuzz.hpp).
//
//   fuzz_solve --seeds 500 --time-budget 120 --artifacts fuzz-artifacts
//   fuzz_solve --quick                      # CI smoke (64 seeds, 30 s)
//   fuzz_solve --service --storms 12        # multi-tenant service storms
//   fuzz_solve --replay tests/corpus/zero_weights_qaoa2.case

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "fuzz/fuzzer.hpp"
#include "fuzz/service_fuzz.hpp"
#include "util/cli.hpp"

namespace {

void print_usage(const char* prog) {
  std::printf(
      "usage: %s [options]\n"
      "  --seeds N          campaign scenario count (default 500)\n"
      "  --seed-begin B     first campaign seed (default 0)\n"
      "  --time-budget S    wall-clock cap in seconds, 0 = unbounded "
      "(default 120)\n"
      "  --exact-cap N      exact-bound oracle node limit (default 16)\n"
      "  --artifacts DIR    write reproducer .case/.cpp files on findings\n"
      "  --no-reduce        report findings unshrunk\n"
      "  --replay FILE      replay one reproducer case, exit 1 on violation\n"
      "  --replay-dir DIR   replay every .case file in DIR\n"
      "  --quick            CI smoke preset: 64 seeds, 30 s budget\n"
      "  --cache            focus on the cache_coherence oracle (disables\n"
      "                     the determinism and relabel oracles)\n"
      "  --service          storm the multi-tenant solve service instead\n"
      "  --storms N         service-mode storm count (default 20)\n"
      "  --verbose          log every scenario\n",
      prog);
}

int replay_paths(const std::vector<std::string>& paths,
                 const qq::fuzz::OracleOptions& oracle) {
  int violated = 0;
  for (const std::string& path : paths) {
    try {
      if (!qq::fuzz::replay_case(path, oracle, &std::cout).empty()) {
        ++violated;
      }
    } catch (const std::exception& e) {
      std::cout << "replay " << path << ": ERROR: " << e.what() << '\n';
      ++violated;
    }
  }
  std::cout << paths.size() << " case(s) replayed, " << violated
            << " violating\n";
  return violated == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const qq::util::Args args(argc, argv);
  if (args.has("help")) {
    args.reject_unknown();
    print_usage(argv[0]);
    return 0;
  }

  qq::fuzz::OracleOptions oracle;
  oracle.exact_max_nodes = args.get_int("exact-cap", oracle.exact_max_nodes);
  if (args.has("cache")) {
    // Focused cache-coherence campaign: every seed still runs the recount /
    // counts / exact-bound oracles, but the re-solve-heavy ones are swapped
    // for the cache probes so the budget goes to cache coverage.
    oracle.check_determinism = false;
    oracle.check_relabel = false;
    oracle.check_cache_coherence = true;
  }

  if (args.has("replay")) {
    const std::string path = args.get("replay", "");
    args.reject_unknown();
    return replay_paths({path}, oracle);
  }
  if (args.has("replay-dir")) {
    const std::string dir = args.get("replay-dir", "");
    args.reject_unknown();
    std::vector<std::string> paths;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      if (entry.path().extension() == ".case") {
        paths.push_back(entry.path().string());
      }
    }
    if (ec) {
      std::cout << "cannot read directory '" << dir << "': " << ec.message()
                << '\n';
      return 2;
    }
    std::sort(paths.begin(), paths.end());
    if (paths.empty()) {
      std::cout << "no .case files in '" << dir << "'\n";
      return 2;
    }
    return replay_paths(paths, oracle);
  }

  if (args.has("service")) {
    qq::fuzz::ServiceFuzzOptions service_options;
    service_options.storms = args.get_int("storms", service_options.storms);
    service_options.seed_begin =
        static_cast<std::uint64_t>(args.get_int("seed-begin", 0));
    service_options.wall_budget_seconds = args.get_double(
        "time-budget", service_options.wall_budget_seconds);
    service_options.verbose = args.has("verbose");
    args.reject_unknown();
    const qq::fuzz::ServiceFuzzReport report =
        qq::fuzz::run_service_fuzz(service_options, &std::cout);
    std::cout << qq::fuzz::summarize_service_report(report);
    if (!report.clean()) {
      std::cout << "FAIL: " << report.violations.size() << " violation(s)\n";
      return 1;
    }
    std::cout << "clean\n";
    return 0;
  }

  qq::fuzz::FuzzOptions options;
  options.oracle = oracle;
  if (args.has("quick")) {
    options.seeds = 64;
    options.wall_budget_seconds = 30.0;
  }
  options.seeds = args.get_int("seeds", options.seeds);
  options.seed_begin =
      static_cast<std::uint64_t>(args.get_int("seed-begin", 0));
  options.wall_budget_seconds =
      args.get_double("time-budget", options.wall_budget_seconds);
  options.artifact_dir = args.get("artifacts", "");
  options.reduce_failures = !args.has("no-reduce");
  options.verbose = args.has("verbose");
  args.reject_unknown();

  const qq::fuzz::FuzzReport report = qq::fuzz::run_fuzz(options, &std::cout);
  std::cout << qq::fuzz::summarize_report(report);
  if (!report.clean()) {
    std::cout << "FAIL: " << report.findings.size() << " finding(s)\n";
    return 1;
  }
  std::cout << "clean\n";
  return 0;
}
