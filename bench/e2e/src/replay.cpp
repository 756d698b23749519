#include "replay.hpp"

#include <algorithm>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>

#include "cache/fingerprint.hpp"
#include "cache/solve_cache.hpp"
#include "common.hpp"
#include "qaoa/cost_table.hpp"
#include "qaoa2/merge.hpp"
#include "qcircuit/ansatz.hpp"
#include "qgraph/partition.hpp"
#include "qsim/batched.hpp"
#include "qsim/measure.hpp"
#include "solver/solver.hpp"
#include "trace.hpp"

namespace e2e {

namespace {

using qq::graph::Graph;
using qq::graph::NodeId;

/// A fill for the cache replay that costs nothing: the hit path's cost
/// (fingerprint, lookup, exact identity check, relabeling) does not depend
/// on the stored cut.
class ZeroCutSolver final : public qq::solver::Solver {
 public:
  std::string_view name() const noexcept override { return "e2e-zero"; }
  qq::sched::ResourceKind resource_kind() const noexcept override {
    return qq::sched::ResourceKind::kClassical;
  }

 protected:
  qq::solver::SolveReport do_solve(
      const qq::solver::SolveRequest& request) const override {
    qq::solver::SolveReport report;
    report.cut.assignment.assign(
        static_cast<std::size_t>(request.graph->num_nodes()), 0);
    return report;
  }
};

/// Median seconds per call of `body`, over `batches` batches of `calls`.
template <typename Body>
double per_call_seconds(int batches, int calls, Body body) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    const double t0 = now_s();
    for (int c = 0; c < calls; ++c) body();
    per_call.push_back((now_s() - t0) / calls);
  }
  return median_of(per_call);
}

qq::circuit::QaoaAngles ramp_angles(int layers) {
  qq::circuit::QaoaAngles angles;
  for (int l = 0; l < layers; ++l) {
    angles.gammas.push_back(0.3 + 0.1 * l);
    angles.betas.push_back(0.4 - 0.1 * l);
  }
  return angles;
}

/// Mean objective evaluations of the sub leaves among `spans`.
double evals_per_sub_leaf(const std::vector<LeafSpan>& spans) {
  double evals = 0, sub_leaves = 0;
  for (const LeafSpan& s : spans) {
    if (s.role != Role::kSub) continue;
    evals += s.evaluations;
    ++sub_leaves;
  }
  return sub_leaves > 0 ? evals / sub_leaves : 0.0;
}

}  // namespace

Level0Replay replay_level0(const Graph& g,
                           const qq::qaoa2::Qaoa2Options& options,
                           const qq::maxcut::Assignment& assignment,
                           int reps) {
  Level0Replay out;
  std::vector<double> component_s, partition_s, extract_s, merge_s;
  for (int r = 0; r < reps; ++r) {
    Level0Replay rep;
    double t = now_s();
    const auto components = qq::graph::connected_components(g);
    std::vector<qq::graph::Subgraph> shards;
    for (const auto& nodes : components) shards.push_back(g.induced(nodes));
    rep.component_s = now_s() - t;

    for (std::size_t c = 0; c < shards.size(); ++c) {
      const Graph& sg = shards[c].graph;
      std::vector<std::vector<NodeId>> parts;
      if (sg.num_nodes() <= options.max_qubits) {
        // A component that fits is solved whole: one level-0 part.
        parts.emplace_back(static_cast<std::size_t>(sg.num_nodes()));
        std::iota(parts.back().begin(), parts.back().end(), 0);
      } else {
        qq::graph::PartitionOptions popts;
        popts.max_nodes = options.max_qubits;
        popts.method = options.partition_method;
        popts.seed = qq::qaoa2::component_seed(options.seed, c, shards.size());
        t = now_s();
        parts = qq::graph::partition_max_size(sg, popts);
        rep.partition_s += now_s() - t;
        t = now_s();
        std::vector<qq::graph::Subgraph> subs =
            qq::graph::induced_batch(sg, parts);
        rep.extract_s += now_s() - t;
        if (r == 0) {
          for (auto& s : subs) out.leaves.push_back(std::move(s.graph));
        }

        std::vector<qq::maxcut::Assignment> locals(parts.size());
        for (std::size_t i = 0; i < parts.size(); ++i) {
          for (const NodeId local : parts[i]) {
            locals[i].push_back(assignment[static_cast<std::size_t>(
                shards[c].to_global[static_cast<std::size_t>(local)])]);
          }
        }
        t = now_s();
        const Graph coarse = qq::qaoa2::build_merge_graph(sg, parts, locals);
        const qq::maxcut::Assignment flips(
            static_cast<std::size_t>(coarse.num_nodes()), 0);
        [[maybe_unused]] const qq::maxcut::Assignment lifted =
            qq::qaoa2::apply_flips(sg.num_nodes(), parts, locals, flips);
        rep.merge_s += now_s() - t;
      }
      rep.stats.num_parts += static_cast<int>(parts.size());
      for (const auto& part : parts) {
        const int size = static_cast<int>(part.size());
        rep.stats.largest_part = std::max(rep.stats.largest_part, size);
        rep.stats.smallest_part = rep.stats.smallest_part == 0
                                      ? size
                                      : std::min(rep.stats.smallest_part, size);
      }
    }
    component_s.push_back(rep.component_s);
    partition_s.push_back(rep.partition_s);
    extract_s.push_back(rep.extract_s);
    merge_s.push_back(rep.merge_s);
    out.stats = rep.stats;
  }
  out.component_s = median_of(component_s);
  out.partition_s = median_of(partition_s);
  out.extract_s = median_of(extract_s);
  out.merge_s = median_of(merge_s);
  return out;
}

bool same_level0(const qq::qaoa2::LevelStats& replayed,
                 const qq::qaoa2::LevelStats& solved) {
  return replayed.num_parts == solved.num_parts &&
         replayed.largest_part == solved.largest_part &&
         replayed.smallest_part == solved.smallest_part;
}

double add_cache_replays(Report& report, const std::vector<Graph>& leaves) {
  double fingerprint_s = 0.0, hit_s = 0.0;
  if (!leaves.empty()) {
    const double n = static_cast<double>(leaves.size());
    fingerprint_s = per_call_seconds(5, 1, [&] {
                      for (const Graph& leaf : leaves) {
                        qq::cache::fingerprint_graph(leaf);
                      }
                    }) /
                    n;
    qq::cache::SolveCache cache;
    const ZeroCutSolver solver;
    const auto pass = [&] {
      for (std::size_t i = 0; i < leaves.size(); ++i) {
        qq::solver::SolveRequest request;
        request.graph = &leaves[i];
        request.seed = i;
        cache.solve_through(solver, request, "e2e-zero");
      }
    };
    pass();  // fill
    hit_s = per_call_seconds(5, 1, pass) / n;
    report.check(cache.stats().hits == 5 * leaves.size(),
                 "cache replay: every second-pass leaf hit");
  }
  report.metrics["cache.fingerprint_us_mean"] = fingerprint_s * 1e6;
  report.metrics["cache.hit_us_mean"] = hit_s * 1e6;
  return hit_s;
}

LeafReplay replay_leaf(const Graph& g, qq::qaoa::QaoaOptions options,
                       std::uint64_t seed,
                       const qq::maxcut::CutResult& recorded) {
  LeafReplay out;
  options.seed = seed;
  const double t0 = now_s();
  const qq::qaoa::QaoaSolver solver(g);
  const double t1 = now_s();
  const qq::qaoa::QaoaResult result = solver.optimize(options);
  const double t2 = now_s();
  out.cut_table_s = t1 - t0;
  out.optimize_s = t2 - t1;
  out.evaluations = result.evaluations;
  out.identical = result.cut.value == recorded.value &&
                  result.cut.assignment == recorded.assignment;
  return out;
}

double eval_seconds(const Graph& g, const qq::qaoa::QaoaOptions& options) {
  const qq::qaoa::QaoaSolver solver(g);
  const qq::circuit::QaoaAngles angles = ramp_angles(options.layers);
  const bool batched = options.restarts > 1 &&
                       g.num_nodes() >= options.lockstep_min_qubits;
  if (!batched) {
    qq::qaoa::QaoaSolver::EvalWorkspace workspace(g.num_nodes());
    const int calls = std::max(1, (1 << 20) >> g.num_nodes());
    return per_call_seconds(5, calls,
                            [&] { solver.expectation(angles, workspace); });
  }
  // One lockstep evaluation, as LockstepEvaluator::run_batch performs it.
  const int lanes = options.restarts;
  qq::sim::BatchedStateVector batch(g.num_nodes(), lanes);
  const std::vector<double>& table = solver.cut_table();
  std::vector<double> scales(static_cast<std::size_t>(lanes));
  std::vector<double> thetas(static_cast<std::size_t>(lanes));
  const double per_sweep = per_call_seconds(5, 2, [&] {
    batch.reset_to_plus();
    for (int l = 0; l < options.layers; ++l) {
      std::fill(scales.begin(), scales.end(), angles.gammas[l]);
      std::fill(thetas.begin(), thetas.end(), 2.0 * angles.betas[l]);
      batch.apply_diagonal_phase(table, scales);
      batch.apply_rx_layer(thetas);
    }
    batch.expectation_diagonal(table);
  });
  return per_sweep / lanes;
}

KernelReplay replay_kernels(const Graph& g, int lanes, int layers) {
  KernelReplay out;
  const std::vector<double> table = qq::qaoa::build_cut_table(g);
  const int q = g.num_nodes();
  const int calls = std::max(2, (1 << 22) >> q >> (lanes > 1 ? 4 : 0));
  if (lanes == 1) {
    qq::sim::StateVector sv = qq::sim::StateVector::plus_state(q);
    out.cost_sweep_us =
        per_call_seconds(5, calls, [&] { sv.apply_diagonal_phase(table, 0.3); }) *
        1e6;
    out.mixer_us =
        per_call_seconds(5, calls, [&] { sv.apply_rx_layer(0.8); }) * 1e6;
    out.expect_us = per_call_seconds(5, calls, [&] {
                      qq::sim::expectation_diagonal(sv, table);
                    }) *
                    1e6;
  } else {
    qq::sim::BatchedStateVector batch(q, lanes);
    batch.reset_to_plus();
    const std::vector<double> scales(static_cast<std::size_t>(lanes), 0.3);
    const std::vector<double> thetas(static_cast<std::size_t>(lanes), 0.8);
    out.cost_sweep_us = per_call_seconds(5, calls, [&] {
                          batch.apply_diagonal_phase(table, scales);
                        }) *
                        1e6;
    out.mixer_us =
        per_call_seconds(5, calls, [&] { batch.apply_rx_layer(thetas); }) *
        1e6;
    out.expect_us = per_call_seconds(5, calls, [&] {
                      batch.expectation_diagonal(table);
                    }) *
                    1e6;
  }
  const double rows = static_cast<double>(std::size_t{1} << q);
  const double amp_bytes = 16.0 * lanes;
  // Per layer: phase sweep reads and writes the amplitudes and reads the
  // table; the mixer reads and writes the amplitudes. Then one expectation
  // pass reads the amplitudes and the table.
  out.bytes_per_eval =
      rows * (layers * (2.0 * amp_bytes + 8.0 + 2.0 * amp_bytes) +
              amp_bytes + 8.0);
  const double eval_us =
      layers * (out.cost_sweep_us + out.mixer_us) + out.expect_us;
  out.gbps = eval_us > 0.0 ? out.bytes_per_eval / (eval_us * 1e3) : 0.0;
  return out;
}

void add_leaf_metrics(Report& report, const std::vector<LeafSpan>& spans,
                      double solves) {
  auto& m = report.metrics;
  std::vector<std::vector<double>> role_s(kNumRoles);
  for (const LeafSpan& s : spans) {
    role_s[static_cast<std::size_t>(s.role)].push_back(s.end_s - s.start_s);
  }
  for (int r = 0; r < kNumRoles; ++r) {
    const std::string prefix =
        std::string("solver.") + role_name(static_cast<Role>(r));
    const auto& ds = role_s[static_cast<std::size_t>(r)];
    m[prefix + ".count"] = static_cast<double>(ds.size()) / solves;
    m[prefix + ".s_sum"] = std::accumulate(ds.begin(), ds.end(), 0.0) / solves;
    m[prefix + ".s_p50"] = median_of(ds);
  }
  m["qaoa.evals_per_leaf"] = evals_per_sub_leaf(spans);
}

void add_leaf_replays(Report& report, const std::vector<LeafSpan>& spans,
                      const qq::qaoa::QaoaOptions& leaf_options,
                      int max_replays) {
  double concurrent = 0, solo = 0, overhead = 0, optimize = 0;
  std::vector<double> cut_table_us;
  int replayed = 0;
  for (const LeafSpan& s : spans) {
    if (replayed == max_replays) break;
    if (s.graph == nullptr) continue;
    const LeafReplay leaf = replay_leaf(*s.graph, leaf_options, s.seed, s.cut);
    report.check(leaf.identical,
                 "solo replay of a leaf reproduces its recorded cut");
    const double per_eval = eval_seconds(*s.graph, leaf_options);
    concurrent += s.end_s - s.start_s;
    solo += leaf.cut_table_s + leaf.optimize_s;
    optimize += leaf.optimize_s;
    overhead += leaf.optimize_s - leaf.evaluations * per_eval;
    cut_table_us.push_back(leaf.cut_table_s * 1e6);
    ++replayed;
  }
  auto& m = report.metrics;
  m["solver.leaf_inflation"] = solo > 0 ? concurrent / solo : 0.0;
  m["optim.overhead_frac"] = optimize > 0 ? overhead / optimize : 0.0;
  m["qaoa.cut_table_us"] = median_of(cut_table_us);
}

void add_kernel_replays(Report& report, const Graph& g, int layers) {
  for (const auto& [q, lanes] : {std::pair{12, 1}, std::pair{16, 16}}) {
    std::vector<NodeId> nodes(static_cast<std::size_t>(q));
    std::iota(nodes.begin(), nodes.end(), 0);
    const KernelReplay k = replay_kernels(g.induced(nodes).graph, lanes, layers);
    const std::string p =
        "qsim." + std::to_string(q) + "x" + std::to_string(lanes) + ".";
    report.metrics[p + "cost_sweep_us"] = k.cost_sweep_us;
    report.metrics[p + "mixer_us"] = k.mixer_us;
    report.metrics[p + "expect_us"] = k.expect_us;
    report.metrics[p + "bytes_per_eval"] = k.bytes_per_eval;
    report.metrics[p + "gbps"] = k.gbps;
  }
}

}  // namespace e2e
