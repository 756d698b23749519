#pragma once
// Nelder–Mead downhill simplex — the alternative classical optimizer kept
// alongside COBYLA so the QAOA driver can swap optimizers (and tests can
// cross-check convergence behaviour).

#include <cstddef>
#include <vector>

#include "optim/optimizer.hpp"

namespace qq::optim {

struct NelderMeadOptions {
  double step = 0.5;    ///< initial simplex edge length
  double ftol = 1e-9;   ///< spread-of-values convergence threshold
  int maxfun = 400;     ///< budget of objective evaluations
};

/// Nelder–Mead as an ask/tell state machine: every objective evaluation the
/// method needs is one ask()/tell() round trip. The budget is checked
/// before each reflection and after each initial or shrunk vertex, so a run
/// may end up to two evaluations past maxfun.
class NelderMead final : public AskTellOptimizer {
 public:
  /// Throws std::invalid_argument for an empty start point.
  explicit NelderMead(std::vector<double> x0,
                      const NelderMeadOptions& options = {});

  const std::vector<double>* ask() const override;
  void tell(double fx) override;

 private:
  enum class Phase {
    kInit,      ///< evaluating initial vertex vertex_
    kReflect,   ///< evaluating xr_
    kExpand,    ///< evaluating xe_
    kContract,  ///< evaluating xc_
    kShrink,    ///< evaluating shrunk vertex vertex_
    kDone,
  };

  /// Top of an iteration: stop on budget or convergence, else reflect.
  void iterate();
  /// Shrinks vertex_ (or the next vertex, skipping the best one) toward the
  /// best vertex, or starts the next iteration after the last one.
  void shrink_next();
  void replace_worst(const std::vector<double>& x, double fx);

  NelderMeadOptions options_;
  std::size_t n_;
  std::vector<std::vector<double>> pts_;  ///< n+1 vertices
  std::vector<double> vals_;
  std::vector<std::size_t> order_;
  std::vector<double> centroid_, xr_, xe_, xc_;
  Phase phase_ = Phase::kInit;
  std::size_t vertex_ = 0;
  std::size_t lo_ = 0, hi_ = 0, second_hi_ = 0;
  double fr_ = 0.0;  ///< value at the reflection point
};

/// Runs NelderMead to completion on `objective`.
Result nelder_mead_minimize(const Objective& objective, std::vector<double> x0,
                            const NelderMeadOptions& options = {});

}  // namespace qq::optim
