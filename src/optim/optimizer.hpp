#pragma once
// Common types for the derivative-free optimizers driving the QAOA
// classical loop (paper §3.2: "⃗γ and ⃗β values are changed in each
// iteration by a classical optimizer").

#include <functional>
#include <limits>
#include <vector>

namespace qq::optim {

/// Objective to MINIMIZE. QAOA maximizes F_p and therefore feeds -F_p.
using Objective = std::function<double(const std::vector<double>&)>;

struct Result {
  std::vector<double> x;
  double fx = 0.0;
  int evaluations = 0;
  /// True when the radius/size tolerance was reached before the evaluation
  /// budget ran out.
  bool converged = false;
};

/// Step-by-step (ask/tell) optimizer. The caller owns the evaluation loop,
/// so it can evaluate the points of several optimizers in one batched
/// simulator sweep, and stop between any two steps.
class AskTellOptimizer {
 public:
  virtual ~AskTellOptimizer() = default;

  /// Next point to evaluate, or nullptr once the optimizer is done. The
  /// point stays valid and unchanged until the next tell().
  virtual const std::vector<double>* ask() const = 0;

  /// Objective value at the point the last ask() returned. Throws
  /// std::logic_error once the optimizer is done.
  virtual void tell(double fx) = 0;

  /// Best point so far (the start point before any evaluation).
  const Result& result() const noexcept { return result_; }

 protected:
  AskTellOptimizer() { result_.fx = std::numeric_limits<double>::infinity(); }
  AskTellOptimizer(const AskTellOptimizer&) = default;
  AskTellOptimizer(AskTellOptimizer&&) = default;
  AskTellOptimizer& operator=(const AskTellOptimizer&) = default;
  AskTellOptimizer& operator=(AskTellOptimizer&&) = default;

  /// Counts one evaluation and keeps the best point seen.
  void record(const std::vector<double>& x, double fx) {
    ++result_.evaluations;
    if (fx < result_.fx) {
      result_.fx = fx;
      result_.x = x;
    }
  }

  Result result_;
};

/// Runs `optimizer` to completion on `objective`.
inline Result minimize(AskTellOptimizer& optimizer,
                       const Objective& objective) {
  while (const std::vector<double>* x = optimizer.ask()) {
    optimizer.tell(objective(*x));
  }
  return optimizer.result();
}

}  // namespace qq::optim
