#include "optim/cobyla.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace qq::optim {

namespace {

/// Solve the n x n system A x = b with partial pivoting. Returns false when
/// A is numerically singular (degenerate simplex).
bool solve_linear(std::vector<double> a, std::vector<double> b,
                  std::size_t n, std::vector<double>& x) {
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    double pmax = std::abs(a[perm[col] * n + col]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double v = std::abs(a[perm[r] * n + col]);
      if (v > pmax) {
        pmax = v;
        pivot = r;
      }
    }
    if (pmax < 1e-14) return false;
    std::swap(perm[col], perm[pivot]);
    const double diag = a[perm[col] * n + col];
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a[perm[r] * n + col] / diag;
      if (factor == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) {
        a[perm[r] * n + c] -= factor * a[perm[col] * n + c];
      }
      b[perm[r]] -= factor * b[perm[col]];
    }
  }
  x.assign(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    double sum = b[perm[i]];
    for (std::size_t c = i + 1; c < n; ++c) {
      sum -= a[perm[i] * n + c] * x[c];
    }
    x[i] = sum / (a[perm[i] * n + i]);
  }
  return true;
}

std::size_t index_of_min(const std::vector<double>& v) {
  return static_cast<std::size_t>(std::min_element(v.begin(), v.end()) -
                                  v.begin());
}

std::size_t index_of_max(const std::vector<double>& v) {
  return static_cast<std::size_t>(std::max_element(v.begin(), v.end()) -
                                  v.begin());
}

}  // namespace

Cobyla::Cobyla(std::vector<double> x0, const CobylaOptions& options)
    : options_(options),
      n_(x0.size()),
      rho_(options.rhobeg),
      simplex_scale_(options.rhobeg),
      a_(n_ * n_),
      b_(n_),
      gradient_(n_) {
  if (n_ == 0) {
    throw std::invalid_argument("Cobyla: empty start point");
  }
  if (!(options.rhobeg > 0.0) || !(options.rhoend > 0.0) ||
      options.rhoend > options.rhobeg) {
    throw std::invalid_argument("Cobyla: need 0 < rhoend <= rhobeg");
  }
  result_.x = x0;
  result_.fx = std::numeric_limits<double>::infinity();
  x0_ = std::move(x0);
  // The first rebuild starts from an empty simplex: x0 itself is its first
  // vertex to evaluate.
  advance();
}

const std::vector<double>* Cobyla::ask() const {
  return phase_ == Phase::kDone ? nullptr : &point_;
}

void Cobyla::tell(double fx) {
  if (phase_ == Phase::kDone) {
    throw std::logic_error("Cobyla::tell: the optimizer is done");
  }
  record(point_, fx);
  if (phase_ == Phase::kRebuild) {
    vertices_.push_back(point_);
    values_.push_back(fx);
  } else {
    take_step(fx);
    if (phase_ == Phase::kDone) return;
  }
  advance();
}

void Cobyla::record(const std::vector<double>& x, double fx) {
  ++result_.evaluations;
  if (fx < result_.fx) {
    result_.fx = fx;
    result_.x = x;
  }
}

void Cobyla::start_rebuild() {
  rebuild_around_best_ = true;
  vertices_.assign(1, result_.x);
  values_.assign(1, result_.fx);
  phase_ = Phase::kRebuild;
}

void Cobyla::advance() {
  for (;;) {
    if (phase_ == Phase::kRebuild) {
      // Vertex i >= 1 is the base point moved by rho along axis i - 1.
      const std::size_t have = vertices_.size();
      if (have == 0) {
        point_ = x0_;
        return;
      }
      if (have <= n_ && result_.evaluations < options_.maxfun) {
        point_ = rebuild_around_best_ ? result_.x : x0_;
        point_[have - 1] += rho_;
        return;
      }
    }
    // Stop on budget, including a budget that died mid-rebuild.
    if (result_.evaluations >= options_.maxfun || vertices_.size() < n_ + 1) {
      phase_ = Phase::kDone;
      return;
    }
    const std::size_t best = index_of_min(values_);
    const std::vector<double>& xb = vertices_[best];
    const double fb = values_[best];

    // Linear interpolation model through the simplex: rows of A are the
    // offsets of the other vertices from the best one.
    std::size_t row = 0;
    for (std::size_t i = 0; i < vertices_.size(); ++i) {
      if (i == best) continue;
      for (std::size_t c = 0; c < n_; ++c) {
        a_[row * n_ + c] = vertices_[i][c] - xb[c];
      }
      b_[row] = values_[i] - fb;
      ++row;
    }
    const bool solvable = solve_linear(a_, b_, n_, gradient_);
    const double gnorm =
        solvable ? std::sqrt(std::inner_product(gradient_.begin(),
                                                gradient_.end(),
                                                gradient_.begin(), 0.0))
                 : 0.0;

    if (!solvable || gnorm < 1e-12) {
      // Degenerate geometry or flat model at this resolution: refine rho
      // and refresh the simplex at the new scale.
      if (rho_ <= options_.rhoend) {
        result_.converged = true;
        phase_ = Phase::kDone;
        return;
      }
      rho_ = std::max(0.5 * rho_, options_.rhoend);
      simplex_scale_ = rho_;
      start_rebuild();
      continue;
    }

    // Trust-region step: steepest descent of length rho on the model.
    point_ = xb;
    for (std::size_t c = 0; c < n_; ++c) {
      point_[c] -= rho_ * gradient_[c] / gnorm;
    }
    step_base_value_ = fb;
    step_predicted_ = rho_ * gnorm;
    phase_ = Phase::kStep;
    return;
  }
}

void Cobyla::take_step(double f_step) {
  const double actual = step_base_value_ - f_step;
  const std::size_t worst = index_of_max(values_);
  if (actual > 0.1 * step_predicted_) {
    // Successful step: it displaces the worst vertex, and a very accurate
    // model earns its radius back (never above rhobeg).
    vertices_[worst] = point_;
    values_[worst] = f_step;
    if (actual > 0.7 * step_predicted_) {
      rho_ = std::min(1.6 * rho_, options_.rhobeg);
    }
    return;
  }
  // Unsuccessful at this resolution. Keep the information if it beats the
  // worst vertex, then lower the resolution. The simplex is kept (a rebuild
  // costs n evaluations) until rho falls far below the scale it was built
  // at.
  if (f_step < values_[worst]) {
    vertices_[worst] = point_;
    values_[worst] = f_step;
  }
  if (rho_ <= options_.rhoend) {
    result_.converged = true;
    phase_ = Phase::kDone;
    return;
  }
  rho_ = std::max(0.5 * rho_, options_.rhoend);
  if (rho_ < 0.25 * simplex_scale_) {
    simplex_scale_ = rho_;
    start_rebuild();
  }
}

Result cobyla_minimize(const Objective& objective, std::vector<double> x0,
                       const CobylaOptions& options) {
  Cobyla cobyla(std::move(x0), options);
  while (const std::vector<double>* x = cobyla.ask()) {
    cobyla.tell(objective(*x));
  }
  return cobyla.result();
}

}  // namespace qq::optim
