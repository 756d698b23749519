#pragma once
// QAOA driver for MaxCut (paper §3.2).
//
// The hybrid loop: prepare |psi_p(beta, gamma)> on the simulator, evaluate
// F_p = <psi|H_C|psi>, and let a classical optimizer (COBYLA, with the
// paper's rhobeg knob) update the angles. Solution extraction follows the
// paper: "the bit string corresponding to the highest amplitude ... is
// chosen" (top_k = 1), with the §5 refinement — scanning the k most
// probable bit strings for the best cut — available via top_k > 1.

#include <cstdint>
#include <vector>

#include "maxcut/cut.hpp"
#include "qcircuit/ansatz.hpp"
#include "qgraph/graph.hpp"
#include "qsim/level_table.hpp"
#include "qsim/statevector.hpp"
#include "util/cancellation.hpp"

namespace qq::qaoa {

enum class InitKind {
  kLinearRamp,  ///< adiabatic-inspired ramp (gamma up, beta down)
  kRandom,      ///< small random angles
};

/// COBYLA's final trust-region radius; `rhobeg` may not be smaller.
inline constexpr double kRhoend = 1e-4;

struct QaoaOptions {
  int layers = 3;  ///< p in Eq. 2
  /// COBYLA initial step ("initial change to the variables", the paper's
  /// grid dimension alongside p); at least kRhoend.
  double rhobeg = 0.5;
  /// Objective-evaluation budget of each restart. 0 selects the paper's
  /// schedule, linear in p and clamped to [30, 100]: 30 + 14 * (p - 3). An
  /// armed evaluation budget on `context` can lower it, never raise it.
  int max_iterations = 0;
  /// Shots per circuit execution (paper: 4096). Used when
  /// shot_based_objective is set and for the sampling diagnostics.
  int shots = 4096;
  /// Estimate F_p from `shots` samples instead of the exact expectation —
  /// the noisy objective a real device (or shot-limited Aer run) gives the
  /// optimizer.
  bool shot_based_objective = false;
  /// Number of highest-probability bit strings scanned for the final
  /// answer; 1 reproduces the paper's default behaviour.
  int top_k = 1;
  /// Independent optimizer restarts from diversified starting angles
  /// (restart r starts from restart_initial_parameters(options, r)). One
  /// loop runs every restart step by step: each step asks all live
  /// restarts for a point, evaluates the points and tells each restart its
  /// value. An exact-objective step with more than one live restart runs
  /// each restart's flat evaluation as its own pool task on its own
  /// workspace, with the kernels inline once the restarts fill the pool.
  /// Each restart's trajectory is bit-for-bit the one a restarts=1 run
  /// from the same start would produce; the best final expectation wins
  /// (ties -> lowest restart index).
  int restarts = 1;
  /// Not read by optimize(), which runs restarts as lane tasks (above).
  /// Read only by bench/e2e replay; deleted in ROADMAP item 3b.
  int lockstep_min_qubits = 12;
  InitKind init = InitKind::kLinearRamp;
  /// Explicit initial [gamma_1..gamma_p, beta_1..beta_p]; overrides `init`
  /// when its size equals 2 * layers (used by INTERP and the kNN warm
  /// start).
  std::vector<double> initial_parameters;
  /// Cooperative stop state of the owning request (service layer). Viewed,
  /// not owned; may be null. optimize() checks it before every optimizer
  /// step and returns its best-so-far when it trips, so a multi-second
  /// loop observes cancellation/deadlines mid-solve. When its evaluation
  /// budget is armed, each restart runs at most
  /// min(max_iterations or the paper schedule, evals_remaining()) steps.
  const util::RequestContext* context = nullptr;
  std::uint64_t seed = 0;
};

struct QaoaResult {
  /// Chosen bit string and its cut value.
  maxcut::CutResult cut;
  /// F_p at the optimized angles (exact expectation).
  double expectation = 0.0;
  /// Optimized [gamma_1..gamma_p, beta_1..beta_p].
  std::vector<double> parameters;
  int evaluations = 0;
  int layers = 0;
  /// Best cut among `shots` sampled bit strings at the optimum — the
  /// hardware-realistic diagnostic. Only meaningful when options.shots > 0;
  /// it is seeded from the first sample, so all-negative cut landscapes
  /// report their true (negative) best.
  double best_sampled_value = 0.0;
};

/// Paper iteration schedule (§4: "linearly dependent on p and ranges from
/// 30 to 100 steps" over p in {3..8}).
int paper_iteration_schedule(int layers);

/// Starting angles for restart `restart` (0-based). Restart 0 is exactly
/// the single-run start (explicit initial_parameters override, ramp, or
/// seeded random per options.init); restarts >= 1 draw small random angles
/// from a restart-salted stream, so a fixed (seed, restart) pair is fully
/// deterministic. Exposed so tests can replay each restart as a restarts=1
/// run.
std::vector<double> restart_initial_parameters(const QaoaOptions& options,
                                               int restart);

/// Precomputes the cut table for one graph, and the level table of its
/// first half (distinct cut values plus a level index per basis state whose
/// top bit is 0), so that repeated optimizations (grid searches, restarts)
/// share both.
///
/// Every QAOA MaxCut state is flip-symmetric, psi(z) == psi(~z), so the
/// solver evaluates on the half state of 2^(n-1) amplitudes
/// (StateVector::reset_to_plus_half): cost layers sweep the half level
/// table, the mixer is apply_rx_layer plus the mirror butterfly of the top
/// qubit, and the expectation reads the dense table in the full index order
/// through the mirror. Each result is bit-for-bit the full-state
/// evaluation. Top-k, sampling and state() expand the half into a full
/// StateVector. See DESIGN.md "Flip symmetry".
class QaoaSolver {
 public:
  /// Reusable per-optimize evaluation scratch: the half state, the full
  /// state it expands into for sampling and top-k, and the sampling
  /// buffers. One workspace serves every objective evaluation of an
  /// optimize() run (one per restart when restarts run as lane tasks), so
  /// no state is allocated per step.
  /// `full` is grown on its first use; exact evaluations never touch it.
  struct EvalWorkspace {
    explicit EvalWorkspace(int num_qubits)
        : half(num_qubits > 0 ? num_qubits - 1 : 0) {}
    sim::StateVector half;
    sim::StateVector full{0};
    std::vector<double> cdf;
    std::vector<sim::BasisState> samples;
  };

  /// Throws std::invalid_argument on a graph without nodes.
  explicit QaoaSolver(const graph::Graph& g);

  const graph::Graph& graph() const noexcept { return *graph_; }
  const std::vector<double>& cut_table() const noexcept { return cut_table_; }
  /// Exact optimum (max over the cut table) — free by-product used by tests
  /// and approximation-ratio reporting.
  double exact_optimum() const noexcept { return exact_optimum_; }

  /// Prepare |psi_p(beta, gamma)> via the diagonal fast path, expanded to
  /// the full 2^n amplitudes.
  sim::StateVector state(const circuit::QaoaAngles& angles) const;

  /// Exact <H_C> at the given angles.
  double expectation(const circuit::QaoaAngles& angles) const;
  double expectation(const circuit::QaoaAngles& angles,
                     EvalWorkspace& workspace) const;

  /// Exact <H_C> at each packed point [gamma_1..gamma_p, beta_1..beta_p]
  /// (all of one p), each point's flat evaluation as one pool task on its
  /// own workspace: the shape optimize() evaluates restarts in. Entry i is
  /// bit-for-bit expectation(circuit::unpack_angles(points[i])).
  std::vector<double> expectations(
      const std::vector<std::vector<double>>& points) const;

  /// Shot-based estimate of <H_C>.
  double sampled_expectation(const circuit::QaoaAngles& angles, int shots,
                             util::Rng& rng) const;
  double sampled_expectation(const circuit::QaoaAngles& angles, int shots,
                             util::Rng& rng, EvalWorkspace& workspace) const;

  /// Full hybrid optimization loop.
  QaoaResult optimize(const QaoaOptions& options) const;

 private:
  /// Reset `half` to the half of |+>^n in place and apply the layers.
  /// `half` is reconstructed only if it does not have n - 1 qubits.
  void prepare_half(const circuit::QaoaAngles& angles,
                    sim::StateVector& half) const;

  /// Final-state extraction: exact expectation, top-k scan, and the
  /// sampled diagnostic.
  void extract_result(const QaoaOptions& options, EvalWorkspace& workspace,
                      util::Rng& shot_rng, QaoaResult& result) const;

  const graph::Graph* graph_;
  std::vector<double> cut_table_;
  sim::LevelTable cut_levels_;
  double exact_optimum_ = 0.0;
};

/// One-shot convenience wrapper.
QaoaResult solve_qaoa(const graph::Graph& g, const QaoaOptions& options = {});

}  // namespace qq::qaoa
