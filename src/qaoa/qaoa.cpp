#include "qaoa/qaoa.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "optim/cobyla.hpp"
#include "qaoa/cost_table.hpp"
#include "qsim/batched.hpp"
#include "qsim/measure.hpp"

namespace qq::qaoa {

int paper_iteration_schedule(int layers) {
  return std::clamp(30 + 14 * (layers - 3), 30, 100);
}

std::vector<double> restart_initial_parameters(const QaoaOptions& options,
                                               int restart) {
  if (restart < 0) {
    throw std::invalid_argument(
        "restart_initial_parameters: restart must be >= 0");
  }
  const int p = options.layers;
  if (restart == 0) {
    // Restart 0 is the single-run start, so restarts=1 reproduces the
    // pre-restart optimizer trajectory bit for bit.
    if (!options.initial_parameters.empty()) {
      if (options.initial_parameters.size() !=
          static_cast<std::size_t>(2 * p)) {
        throw std::invalid_argument(
            "QaoaOptions::initial_parameters must have size 2 * layers");
      }
      return options.initial_parameters;
    }
    if (options.init == InitKind::kLinearRamp) {
      circuit::QaoaAngles angles;
      angles.gammas.resize(static_cast<std::size_t>(p));
      angles.betas.resize(static_cast<std::size_t>(p));
      // Adiabatic-style ramp: the cost angle grows with the layer index
      // while the mixer angle decays — the standard structure-aware start.
      for (int l = 0; l < p; ++l) {
        const double t =
            (static_cast<double>(l) + 0.5) / static_cast<double>(p);
        angles.gammas[static_cast<std::size_t>(l)] = 0.7 * t;
        angles.betas[static_cast<std::size_t>(l)] = 0.7 * (1.0 - t);
      }
      return circuit::pack_angles(angles);
    }
  }
  // Restart r >= 1 (and restart 0 of kRandom, whose salt term vanishes):
  // small random angles from a (seed, restart)-keyed stream, so every
  // restart is individually replayable.
  util::Rng rng((options.seed +
                 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(restart)) ^
                0xa5a5a5a5ULL);
  circuit::QaoaAngles angles;
  angles.gammas.resize(static_cast<std::size_t>(p));
  angles.betas.resize(static_cast<std::size_t>(p));
  for (int l = 0; l < p; ++l) {
    angles.gammas[static_cast<std::size_t>(l)] = util::uniform(rng, 0.0, 0.6);
    angles.betas[static_cast<std::size_t>(l)] = util::uniform(rng, 0.0, 0.6);
  }
  return circuit::pack_angles(angles);
}

namespace {

const graph::Graph& check_has_nodes(const graph::Graph& g) {
  if (g.num_nodes() < 1) {
    throw std::invalid_argument("QaoaSolver: graph has no nodes");
  }
  return g;
}

}  // namespace

QaoaSolver::QaoaSolver(const graph::Graph& g)
    : graph_(&check_has_nodes(g)),
      cut_table_(build_cut_table(g)),
      cut_levels_(cut_table_, cut_table_.size() / 2) {
  exact_optimum_ =
      cut_table_.empty()
          ? 0.0
          : *std::max_element(cut_table_.begin(), cut_table_.end());
}

sim::StateVector QaoaSolver::state(const circuit::QaoaAngles& angles) const {
  sim::StateVector half(graph_->num_nodes() - 1);
  prepare_half(angles, half);
  sim::StateVector full(0);
  half.expand_half(full);
  return full;
}

void QaoaSolver::prepare_half(const circuit::QaoaAngles& angles,
                              sim::StateVector& half) const {
  if (angles.gammas.size() != angles.betas.size()) {
    throw std::invalid_argument("QaoaSolver::state: layer mismatch");
  }
  const int n = graph_->num_nodes();
  if (half.num_qubits() != n - 1) half = sim::StateVector(n - 1);
  half.reset_to_plus_half();
  for (std::size_t layer = 0; layer < angles.layers(); ++layer) {
    // Cost layer e^{-i gamma H_C}: one diagonal sweep over the cut levels.
    half.apply_diagonal_phase(cut_levels_, angles.gammas[layer]);
    // Mixer e^{-i beta H_M} = Prod_q RX_q(2 beta): qubits 0..n-2 fused into
    // one cache-blocked pass, then the top qubit as the mirror butterfly.
    const double theta = 2.0 * angles.betas[layer];
    half.apply_rx_layer(theta);
    half.apply_rx_mirror(theta);
  }
}

double QaoaSolver::expectation(const circuit::QaoaAngles& angles) const {
  EvalWorkspace workspace(graph_->num_nodes());
  return expectation(angles, workspace);
}

double QaoaSolver::expectation(const circuit::QaoaAngles& angles,
                               EvalWorkspace& workspace) const {
  prepare_half(angles, workspace.half);
  return sim::expectation_diagonal_mirror(workspace.half, cut_table_);
}

double QaoaSolver::sampled_expectation(const circuit::QaoaAngles& angles,
                                       int shots, util::Rng& rng) const {
  EvalWorkspace workspace(graph_->num_nodes());
  return sampled_expectation(angles, shots, rng, workspace);
}

double QaoaSolver::sampled_expectation(const circuit::QaoaAngles& angles,
                                       int shots, util::Rng& rng,
                                       EvalWorkspace& workspace) const {
  if (shots < 1) {
    throw std::invalid_argument("sampled_expectation: shots must be >= 1");
  }
  prepare_half(angles, workspace.half);
  workspace.half.expand_half(workspace.full);
  sim::sample_counts_into(workspace.full, shots, rng, workspace.cdf,
                          workspace.samples);
  double sum = 0.0;
  for (const sim::BasisState s : workspace.samples) sum += cut_table_[s];
  return sum / static_cast<double>(shots);
}

namespace {

/// Writes F_p of every point into `values` from one BatchedStateVector
/// evaluation on half states, the lockstep twin of QaoaSolver::prepare_half:
/// cost layers sweep the shared half level table, the expectation reads the
/// shared cut table through the mirror. Each lane is bit-for-bit the flat
/// evaluation (batched_test), so batching never changes a restart's
/// trajectory. `batch` is reallocated when the point count changes.
void evaluate_batched(const std::vector<double>& cut_table,
                      const sim::LevelTable& cut_levels, int num_qubits,
                      int layers,
                      const std::vector<const std::vector<double>*>& points,
                      std::unique_ptr<sim::BatchedStateVector>& batch,
                      std::vector<double>& values) {
  const std::size_t lanes = points.size();
  if (!batch || static_cast<std::size_t>(batch->batch()) != lanes) {
    batch.reset();  // free the wider batch before allocating the new one
    batch = std::make_unique<sim::BatchedStateVector>(
        num_qubits - 1, static_cast<int>(lanes));
  }
  std::vector<double> scales(lanes), thetas(lanes);
  batch->reset_to_plus_half();
  for (int l = 0; l < layers; ++l) {
    // Packed layout [gamma_1..gamma_p, beta_1..beta_p]; the angle
    // expressions match QaoaSolver::prepare_half exactly.
    const auto gamma = static_cast<std::size_t>(l);
    const auto beta = static_cast<std::size_t>(layers + l);
    for (std::size_t b = 0; b < lanes; ++b) {
      scales[b] = (*points[b])[gamma];
      thetas[b] = 2.0 * (*points[b])[beta];
    }
    batch->apply_diagonal_phase(cut_levels, scales);
    batch->apply_rx_layer(thetas);
    batch->apply_rx_mirror(thetas);
  }
  values = batch->expectation_diagonal_mirror(cut_table);
}

}  // namespace

std::vector<double> QaoaSolver::expectations(
    const std::vector<std::vector<double>>& points) const {
  std::vector<const std::vector<double>*> refs;
  for (const std::vector<double>& x : points) {
    if (x.empty() || x.size() % 2 != 0 || x.size() != points[0].size()) {
      throw std::invalid_argument(
          "QaoaSolver::expectations: points must share one even size");
    }
    refs.push_back(&x);
  }
  std::vector<double> values;
  if (refs.empty()) return values;
  std::unique_ptr<sim::BatchedStateVector> batch;
  evaluate_batched(cut_table_, cut_levels_, graph_->num_nodes(),
                   static_cast<int>(points[0].size() / 2), refs, batch,
                   values);
  return values;
}

QaoaResult QaoaSolver::optimize(const QaoaOptions& options) const {
  if (options.layers < 1) {
    throw std::invalid_argument("QaoaSolver::optimize: layers must be >= 1");
  }
  if (options.top_k < 1) {
    throw std::invalid_argument("QaoaSolver::optimize: top_k must be >= 1");
  }
  if (options.restarts < 1) {
    throw std::invalid_argument("QaoaSolver::optimize: restarts must be >= 1");
  }
  optim::CobylaOptions cobyla;
  cobyla.rhobeg = options.rhobeg;
  cobyla.rhoend = kRhoend;
  cobyla.maxfun = options.max_iterations > 0
                      ? options.max_iterations
                      : paper_iteration_schedule(options.layers);
  // An armed request budget caps each lane; it never raises the configured
  // budget.
  if (options.context != nullptr && options.context->eval_budget_armed()) {
    cobyla.maxfun = static_cast<int>(
        std::min<std::int64_t>(cobyla.maxfun,
                               options.context->evals_remaining()));
  }
  const int num_qubits = graph_->num_nodes();
  const auto restarts = static_cast<std::size_t>(options.restarts);

  // One optimizer per restart ("lane").
  std::vector<optim::Cobyla> lanes;
  lanes.reserve(restarts);
  for (int r = 0; r < options.restarts; ++r) {
    lanes.emplace_back(restart_initial_parameters(options, r), cobyla);
  }
  // Each lane draws shots from the stream a restarts=1 run would use, so a
  // shot-based lane replays that run too.
  std::vector<util::Rng> shot_rngs(
      restarts, util::Rng(options.seed ^ 0x7357b1e55ed5eedULL));
  // One workspace serves every flat evaluation AND the final extraction:
  // the half state (and sampling scratch) is allocated once per optimize()
  // instead of once per optimizer step.
  EvalWorkspace workspace(num_qubits);
  const bool batchable = !options.shot_based_objective &&
                         num_qubits >= options.lockstep_min_qubits;
  std::unique_ptr<sim::BatchedStateVector> batch;
  std::vector<std::size_t> live;
  std::vector<const std::vector<double>*> points;
  std::vector<double> values;

  // Each step asks every live lane for a point in ascending restart order,
  // evaluates all of them, and tells each lane its value (-F_p, since the
  // optimizers minimize). A stopped request ends the loop between steps;
  // every lane keeps its best point so far.
  while (options.context == nullptr || !options.context->stopped()) {
    live.clear();
    points.clear();
    for (std::size_t r = 0; r < restarts; ++r) {
      if (const std::vector<double>* x = lanes[r].ask()) {
        live.push_back(r);
        points.push_back(x);
      }
    }
    if (live.empty()) break;
    values.resize(live.size());
    if (batchable && live.size() > 1) {
      evaluate_batched(cut_table_, cut_levels_, num_qubits, options.layers,
                       points, batch, values);
      for (double& v : values) v = -v;
    } else {
      for (std::size_t i = 0; i < live.size(); ++i) {
        const circuit::QaoaAngles angles = circuit::unpack_angles(*points[i]);
        values[i] = options.shot_based_objective
                        ? -sampled_expectation(angles, options.shots,
                                               shot_rngs[live[i]], workspace)
                        : -expectation(angles, workspace);
      }
    }
    for (std::size_t i = 0; i < live.size(); ++i) {
      lanes[live[i]].tell(values[i]);
    }
  }

  // The winner is the first lane with the largest F_p at its final point.
  // An exact lane's fx is exactly -F_p there; a shot-based lane's fx is an
  // estimate, so its F_p is recomputed exactly.
  std::size_t best = 0;
  double best_value = 0.0;
  int evaluations = 0;
  for (std::size_t r = 0; r < restarts; ++r) {
    const optim::Result& res = lanes[r].result();
    evaluations += res.evaluations;
    if (restarts == 1) break;
    const double value =
        options.shot_based_objective
            ? expectation(circuit::unpack_angles(res.x), workspace)
            : -res.fx;
    if (r == 0 || value > best_value) {
      best = r;
      best_value = value;
    }
  }

  batch.reset();  // the extraction below needs only the flat workspace
  QaoaResult result;
  result.parameters = lanes[best].result().x;
  result.evaluations = evaluations;
  result.layers = options.layers;
  extract_result(options, workspace, shot_rngs[best], result);
  return result;
}

void QaoaSolver::extract_result(const QaoaOptions& options,
                                EvalWorkspace& workspace, util::Rng& shot_rng,
                                QaoaResult& result) const {
  const circuit::QaoaAngles best_angles =
      circuit::unpack_angles(result.parameters);
  prepare_half(best_angles, workspace.half);
  result.expectation =
      sim::expectation_diagonal_mirror(workspace.half, cut_table_);
  workspace.half.expand_half(workspace.full);
  const sim::StateVector& sv = workspace.full;

  // Solution extraction. top_k == 1 is the paper's highest-amplitude rule;
  // larger k scans the k most probable strings for the best cut (§5).
  const auto top = sim::top_k_states(sv, options.top_k);
  sim::BasisState chosen = top.front().first;
  double chosen_value = cut_table_[chosen];
  for (const auto& [state_idx, prob] : top) {
    (void)prob;
    if (cut_table_[state_idx] > chosen_value) {
      chosen = state_idx;
      chosen_value = cut_table_[state_idx];
    }
  }
  result.cut.assignment =
      maxcut::assignment_from_bits(chosen, graph_->num_nodes());
  result.cut.value = chosen_value;

  if (options.shots > 0) {
    sim::sample_counts_into(sv, options.shots, shot_rng, workspace.cdf,
                            workspace.samples);
    const auto& samples = workspace.samples;
    // Seed from the first sample, NOT 0.0: graphs whose every cut value is
    // negative (signed merge graphs, negative-weight edges) must report the
    // true best sample rather than a phantom 0.
    double best_sampled = cut_table_[samples.front()];
    for (const sim::BasisState s : samples) {
      best_sampled = std::max(best_sampled, cut_table_[s]);
    }
    result.best_sampled_value = best_sampled;
  }
}

QaoaResult solve_qaoa(const graph::Graph& g, const QaoaOptions& options) {
  return QaoaSolver(g).optimize(options);
}

}  // namespace qq::qaoa
