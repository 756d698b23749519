// Solve-cache benchmark backing BENCH_cache.json (ROADMAP item 4):
//
//  1. miss -> hit latency: per graph size, the cold fill cost of a leaf
//     solve vs the latency of answering the same request from the cache
//     (fingerprint + shard lookup + permutation map-back), with the
//     registry dispatch cost (spec parse + construction + the cheapest
//     backend's solve on the same graph) as the floor the hit is compared
//     against.
//  2. warm-start transfer: COBYLA evaluations-to-convergence and reached
//     objective on fresh instances, cold start vs a miss warm-started from
//     the advisor's transferred (gamma, beta) schedules.
//
//   bench_cache [--smoke] [--json FILE]
//
// --smoke shrinks the run for CI legs and loosens nothing: the acceptance
// flags are computed the same way at both scales.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "cache/solve_cache.hpp"
#include "qgraph/generators.hpp"
#include "qgraph/graph.hpp"
#include "solver/registry.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct LatencyRow {
  int nodes = 0;
  double cold_ms = 0.0;      ///< miss: fingerprint + backend fill
  double hit_us = 0.0;       ///< mean cache-hit latency
  double dispatch_us = 0.0;  ///< registry make + cheapest-backend solve
  double speedup = 0.0;      ///< cold / hit
  double hit_over_dispatch = 0.0;
};

/// Registry dispatch floor: parse + construct a spec and run the cheapest
/// real backend (`random`: one assignment draw + one cut evaluation) on the
/// SAME graph. That is the minimum any registry-dispatched answer for this
/// graph can cost — it has to at least read the edges once — and the honest
/// floor a cache hit (which also reads the graph, to fingerprint it) is
/// compared against.
double measure_dispatch_us(const qq::graph::Graph& g, int iters) {
  qq::solver::SolveRequest request;
  request.graph = &g;
  request.seed = 7;
  // Best-of-batches: both sides of the hit/dispatch ratio are floors, so
  // take the minimum batch mean to shed scheduler/frequency noise.
  constexpr int kBatches = 5;
  double best = 0.0;
  for (int b = 0; b < kBatches; ++b) {
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < iters; ++i) {
      const qq::solver::SolverPtr s =
          qq::solver::SolverRegistry::global().make("random");
      (void)s->solve(request);
    }
    const double us = 1e6 * seconds_since(start) / iters;
    if (b == 0 || us < best) best = us;
  }
  return best;
}

LatencyRow measure_latency(const std::string& spec, int nodes, int hit_reps,
                           int dispatch_reps, qq::util::Rng& rng) {
  LatencyRow row;
  row.nodes = nodes;
  const qq::graph::Graph g = qq::graph::erdos_renyi(
      static_cast<qq::graph::NodeId>(nodes), 0.35, rng,
      qq::graph::WeightMode::kUniform01);
  row.dispatch_us = measure_dispatch_us(g, dispatch_reps);
  const qq::solver::SolverPtr solver =
      qq::solver::SolverRegistry::global().make(spec);
  qq::cache::SolveCache cache;
  qq::solver::SolveRequest request;
  request.graph = &g;
  request.seed = 7;

  const Clock::time_point start = Clock::now();
  (void)cache.solve_through(*solver, request, spec);
  row.cold_ms = 1e3 * seconds_since(start);

  constexpr int kBatches = 5;
  for (int b = 0; b < kBatches; ++b) {
    const Clock::time_point batch = Clock::now();
    for (int i = 0; i < hit_reps; ++i) {
      (void)cache.solve_through(*solver, request, spec);
    }
    const double us = 1e6 * seconds_since(batch) / hit_reps;
    if (b == 0 || us < row.hit_us) row.hit_us = us;
  }
  row.speedup = (1e3 * row.cold_ms) / row.hit_us;
  row.hit_over_dispatch = row.hit_us / row.dispatch_us;
  return row;
}

struct WarmStartResult {
  int instances = 0;
  double cold_evals_mean = 0.0;
  double warm_evals_mean = 0.0;
  double evals_saved_pct = 0.0;
  double cold_value_sum = 0.0;
  double warm_value_sum = 0.0;
  double cold_expectation_sum = 0.0;
  double warm_expectation_sum = 0.0;
  std::size_t advisor_observations = 0;
  bool pass = false;
};

WarmStartResult measure_warm_start(bool smoke, qq::util::Rng& rng) {
  const std::string spec = "qaoa:p=2,iters=120,shots=128";
  const qq::solver::SolverPtr solver =
      qq::solver::SolverRegistry::global().make(spec);
  qq::cache::SolveCache cache;

  // Prime the advisor: every clean fill records its optimized schedule.
  const int training = smoke ? 6 : 16;
  for (int i = 0; i < training; ++i) {
    const qq::graph::Graph g = qq::graph::erdos_renyi(
        12, 0.35, rng, qq::graph::WeightMode::kUniform01);
    if (g.num_edges() == 0) continue;
    qq::solver::SolveRequest request;
    request.graph = &g;
    request.seed = 100 + static_cast<std::uint64_t>(i);
    (void)cache.solve_through(*solver, request, spec);
  }

  WarmStartResult result;
  result.advisor_observations = cache.advisor().size();
  qq::cache::CachePolicy warm_policy;
  warm_policy.warm_start = true;
  const int instances = smoke ? 4 : 12;
  for (int i = 0; i < instances; ++i) {
    const qq::graph::Graph g = qq::graph::erdos_renyi(
        12, 0.35, rng, qq::graph::WeightMode::kUniform01);
    if (g.num_edges() == 0) continue;
    qq::solver::SolveRequest request;
    request.graph = &g;
    request.seed = 900 + static_cast<std::uint64_t>(i);

    const qq::solver::SolveReport cold = solver->solve(request);
    // A fresh graph: the warm solve is a genuine miss that consults the
    // advisor for a transferred schedule before running COBYLA.
    const qq::solver::SolveReport warm =
        cache.solve_through(*solver, request, spec, warm_policy);

    ++result.instances;
    result.cold_evals_mean += cold.evaluations;
    result.warm_evals_mean += warm.evaluations;
    result.cold_value_sum += cold.cut.value;
    result.warm_value_sum += warm.cut.value;
    result.cold_expectation_sum += cold.metric("expectation");
    result.warm_expectation_sum += warm.metric("expectation");
  }
  if (result.instances > 0) {
    result.cold_evals_mean /= result.instances;
    result.warm_evals_mean /= result.instances;
  }
  result.evals_saved_pct =
      result.cold_evals_mean > 0.0
          ? 100.0 * (1.0 - result.warm_evals_mean / result.cold_evals_mean)
          : 0.0;
  // Pass: fewer COBYLA evaluations at no loss of reached objective.
  result.pass = result.warm_evals_mean < result.cold_evals_mean &&
                result.warm_value_sum >= 0.995 * result.cold_value_sum;
  return result;
}

void write_json(const char* path, bool smoke,
                const std::vector<LatencyRow>& latency, bool latency_pass,
                const WarmStartResult& warm) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"_comment\": \"bench_cache results: miss->hit latency "
               "and warm-start transfer evidence for the fleet-wide solve "
               "cache. Regenerate with: ./build/bench/bench_cache --json "
               "BENCH_cache.json (Release).\",\n");
  std::fprintf(f, "  \"context\": {\"smoke\": %s},\n",
               smoke ? "true" : "false");
  std::fprintf(f, "  \"latency\": {\"rows\": [\n");
  for (std::size_t i = 0; i < latency.size(); ++i) {
    const LatencyRow& r = latency[i];
    std::fprintf(f,
                 "    {\"nodes\": %d, \"cold_fill_ms\": %.4f, \"hit_us\": "
                 "%.3f, \"dispatch_us\": %.3f, \"speedup\": %.1f, "
                 "\"hit_over_dispatch\": %.2f}%s\n",
                 r.nodes, r.cold_ms, r.hit_us, r.dispatch_us, r.speedup,
                 r.hit_over_dispatch, i + 1 < latency.size() ? "," : "");
  }
  std::fprintf(f, "  ], \"target\": \"hit <= ~10x dispatch\", \"pass\": %s},\n",
               latency_pass ? "true" : "false");
  std::fprintf(f,
               "  \"warm_start\": {\"instances\": %d, \"advisor_"
               "observations\": %zu, \"cold_evals_mean\": %.1f, "
               "\"warm_evals_mean\": %.1f, \"evals_saved_pct\": %.1f, "
               "\"cold_value_sum\": %.4f, \"warm_value_sum\": %.4f, "
               "\"cold_expectation_sum\": %.4f, \"warm_expectation_sum\": "
               "%.4f, \"pass\": %s}\n",
               warm.instances, warm.advisor_observations,
               warm.cold_evals_mean, warm.warm_evals_mean,
               warm.evals_saved_pct, warm.cold_value_sum,
               warm.warm_value_sum, warm.cold_expectation_sum,
               warm.warm_expectation_sum, warm.pass ? "true" : "false");
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
  qq::util::Rng rng(2024);

  std::printf("=== Solve cache: miss -> hit latency (%s) ===\n\n",
              smoke ? "smoke" : "full");
  // Multi-ms cold fill: a production-strength annealer configuration (the
  // cheapest backend whose leaf solves genuinely cost milliseconds at these
  // sizes; qaoa costs seconds-to-minutes, which the hit answers just the
  // same but would bloat the bench run).
  const std::string spec = "anneal:sweeps=4000";
  const int dispatch_reps = smoke ? 500 : 5000;
  // Leaf-solve sizes: qaoa2 decomposition caps leaves at the device qubit
  // count (max_qubits, typically <= 20; 24 as headroom), so those are the
  // graphs the cache actually answers for.
  const std::vector<int> sizes =
      smoke ? std::vector<int>{12, 20} : std::vector<int>{8, 12, 16, 20, 24};
  const int hit_reps = smoke ? 100 : 1000;
  std::vector<LatencyRow> latency;
  for (const int n : sizes) {
    latency.push_back(measure_latency(spec, n, hit_reps, dispatch_reps, rng));
  }
  bool latency_pass = true;
  qq::util::Table table({"nodes", "cold fill ms", "hit us", "dispatch us",
                         "speedup", "hit/dispatch"});
  for (const LatencyRow& r : latency) {
    latency_pass = latency_pass && r.hit_over_dispatch <= 10.0 &&
                   r.speedup >= 10.0;
    table.add_row({std::to_string(r.nodes),
                   qq::util::format_double(r.cold_ms, 4),
                   qq::util::format_double(r.hit_us, 3),
                   qq::util::format_double(r.dispatch_us, 3),
                   qq::util::format_double(r.speedup, 1),
                   qq::util::format_double(r.hit_over_dispatch, 2)});
  }
  std::printf("%s", table.str().c_str());
  std::printf("latency pass (hit <= 10x dispatch, >= 10x under cold): %s\n\n",
              latency_pass ? "yes" : "NO");

  std::printf("=== Warm-start transfer on cache misses ===\n\n");
  const WarmStartResult warm = measure_warm_start(smoke, rng);
  std::printf(
      "instances %d | advisor observations %zu\n"
      "COBYLA evaluations: cold %.1f -> warm %.1f (%.1f%% saved)\n"
      "reached objective:  cold sum %.4f vs warm sum %.4f (cut value), "
      "expectation %.4f vs %.4f\n"
      "warm-start pass (fewer evals, objective preserved): %s\n",
      warm.instances, warm.advisor_observations, warm.cold_evals_mean,
      warm.warm_evals_mean, warm.evals_saved_pct, warm.cold_value_sum,
      warm.warm_value_sum, warm.cold_expectation_sum,
      warm.warm_expectation_sum, warm.pass ? "yes" : "NO");

  if (!json_path.empty()) {
    write_json(json_path.c_str(), smoke, latency, latency_pass, warm);
  }
  return latency_pass && warm.pass ? 0 : 1;
}
