#pragma once
// COBYLA-style derivative-free trust-region optimizer.
//
// The paper drives QAOA with SciPy's COBYLA and sweeps its `rhobeg`
// parameter (initial change to the variables) over {0.1 ... 0.5} — rhobeg is
// therefore a first-class citizen here. This implementation keeps the core
// of Powell's method for the unconstrained case (QAOA angles are
// unconstrained): a non-degenerate simplex of n+1 points carries a linear
// interpolation model; steps are steepest-descent moves of length rho on
// that model; rho only ever shrinks, from rhobeg down to rhoend, with a
// simplex rebuild around the incumbent at every shrink. The constraint
// machinery of the original (which MaxCut-QAOA never engages) is omitted —
// see DESIGN.md "Substitutions".

#include <cstddef>
#include <functional>
#include <vector>

namespace qq::optim {

/// Objective to MINIMIZE. QAOA maximizes F_p and therefore feeds -F_p.
using Objective = std::function<double(const std::vector<double>&)>;

struct Result {
  std::vector<double> x;
  double fx = 0.0;
  int evaluations = 0;
  /// True when the radius tolerance was reached before the evaluation
  /// budget ran out.
  bool converged = false;
};

struct CobylaOptions {
  double rhobeg = 0.5;   ///< initial trust-region radius / simplex edge
  double rhoend = 1e-4;  ///< final radius; convergence once reached
  int maxfun = 100;      ///< budget of objective evaluations
};

/// COBYLA as an ask/tell state machine: every objective evaluation the
/// method needs is one ask()/tell() round trip. The caller owns the
/// evaluation loop, so it can evaluate the points of several runs in one
/// batched simulator sweep, and stop between any two steps.
class Cobyla {
 public:
  /// Throws std::invalid_argument for an empty start point or unless
  /// 0 < rhoend <= rhobeg.
  explicit Cobyla(std::vector<double> x0, const CobylaOptions& options = {});

  /// Next point to evaluate, or nullptr once the run is done. The point
  /// stays valid and unchanged until the next tell().
  const std::vector<double>* ask() const;

  /// Objective value at the point the last ask() returned. Throws
  /// std::logic_error once the run is done.
  void tell(double fx);

  /// Best point so far (the start point before any evaluation).
  const Result& result() const noexcept { return result_; }

 private:
  enum class Phase {
    kRebuild,  ///< point_ is the next vertex of a simplex rebuild
    kStep,     ///< point_ is a trust-region step
    kDone,
  };

  /// Runs the method until it needs point_ evaluated or finishes.
  void advance();
  /// Rebuilds the simplex around the best point so far at radius rho_.
  void start_rebuild();
  /// Applies a trust-region step's value; may finish or start a rebuild.
  void take_step(double f_step);
  /// Counts one evaluation and keeps the best point seen.
  void record(const std::vector<double>& x, double fx);

  Result result_;
  CobylaOptions options_;
  std::size_t n_;
  double rho_;
  /// Rebuilds cost n evaluations, so one is triggered only when rho_ has
  /// shrunk well below the scale the simplex was built at, or when the
  /// geometry degenerates.
  double simplex_scale_;
  Phase phase_ = Phase::kRebuild;
  std::vector<double> point_;
  /// The first simplex is built around x0. Later rebuilds offset each new
  /// vertex from the best point so far, which can move during the rebuild.
  std::vector<double> x0_;
  bool rebuild_around_best_ = false;
  std::vector<std::vector<double>> vertices_;  ///< n+1 once built
  std::vector<double> values_;
  double step_base_value_ = 0.0;  ///< value at the vertex a step starts from
  double step_predicted_ = 0.0;   ///< model reduction of that step
  std::vector<double> a_, b_, gradient_;
};

/// Runs Cobyla to completion on `objective`.
Result cobyla_minimize(const Objective& objective, std::vector<double> x0,
                       const CobylaOptions& options = {});

}  // namespace qq::optim
