#include "optim/nelder_mead.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace qq::optim {

namespace {

// Standard coefficients (reflection, expansion, contraction, shrink).
constexpr double kAlpha = 1.0, kGamma = 2.0, kRhoC = 0.5, kSigma = 0.5;

}  // namespace

NelderMead::NelderMead(std::vector<double> x0,
                       const NelderMeadOptions& options)
    : options_(options),
      n_(x0.size()),
      vals_(n_ + 1),
      order_(n_ + 1),
      centroid_(n_),
      xr_(n_),
      xe_(n_),
      xc_(n_) {
  if (n_ == 0) {
    throw std::invalid_argument("NelderMead: empty start point");
  }
  pts_.assign(n_ + 1, x0);
  for (std::size_t i = 0; i < n_; ++i) pts_[i + 1][i] += options_.step;
  result_.x = std::move(x0);
}

const std::vector<double>* NelderMead::ask() const {
  switch (phase_) {
    case Phase::kInit:
    case Phase::kShrink:
      return &pts_[vertex_];
    case Phase::kReflect:
      return &xr_;
    case Phase::kExpand:
      return &xe_;
    case Phase::kContract:
      return &xc_;
    case Phase::kDone:
      break;
  }
  return nullptr;
}

void NelderMead::tell(double fx) {
  const std::vector<double>* x = ask();
  if (x == nullptr) {
    throw std::logic_error("NelderMead::tell: the optimizer is done");
  }
  record(*x, fx);
  switch (phase_) {
    case Phase::kInit:
      vals_[vertex_] = fx;
      // The budget is checked after each offset vertex, not after x0.
      if (vertex_ > 0 && result_.evaluations >= options_.maxfun) {
        phase_ = Phase::kDone;
      } else if (++vertex_ > n_) {
        iterate();
      }
      return;
    case Phase::kReflect:
      fr_ = fx;
      if (fr_ < vals_[lo_]) {
        for (std::size_t c = 0; c < n_; ++c) {
          xe_[c] = centroid_[c] + kGamma * (xr_[c] - centroid_[c]);
        }
        phase_ = Phase::kExpand;
      } else if (fr_ < vals_[second_hi_]) {
        replace_worst(xr_, fr_);
        iterate();
      } else {
        const bool outside = fr_ < vals_[hi_];
        const std::vector<double>& base = outside ? xr_ : pts_[hi_];
        for (std::size_t c = 0; c < n_; ++c) {
          xc_[c] = centroid_[c] + kRhoC * (base[c] - centroid_[c]);
        }
        phase_ = Phase::kContract;
      }
      return;
    case Phase::kExpand:
      if (fx < fr_) {
        replace_worst(xe_, fx);
      } else {
        replace_worst(xr_, fr_);
      }
      iterate();
      return;
    case Phase::kContract:
      if (fx < std::min(fr_, vals_[hi_])) {
        replace_worst(xc_, fx);
        iterate();
      } else {
        vertex_ = 0;
        phase_ = Phase::kShrink;
        shrink_next();
      }
      return;
    case Phase::kShrink:
      vals_[vertex_] = fx;
      if (result_.evaluations >= options_.maxfun) {
        phase_ = Phase::kDone;
      } else {
        ++vertex_;
        shrink_next();
      }
      return;
    case Phase::kDone:
      return;
  }
}

void NelderMead::iterate() {
  if (result_.evaluations >= options_.maxfun) {
    phase_ = Phase::kDone;
    return;
  }
  std::iota(order_.begin(), order_.end(), 0);
  std::sort(order_.begin(), order_.end(),
            [this](std::size_t i, std::size_t j) { return vals_[i] < vals_[j]; });
  lo_ = order_.front();
  hi_ = order_.back();
  second_hi_ = order_[n_ - 1];

  if (std::abs(vals_[hi_] - vals_[lo_]) <
      options_.ftol * (std::abs(vals_[hi_]) + std::abs(vals_[lo_]) + 1e-30)) {
    result_.converged = true;
    phase_ = Phase::kDone;
    return;
  }

  std::fill(centroid_.begin(), centroid_.end(), 0.0);
  for (std::size_t i = 0; i <= n_; ++i) {
    if (i == hi_) continue;
    for (std::size_t c = 0; c < n_; ++c) centroid_[c] += pts_[i][c];
  }
  for (double& c : centroid_) c /= static_cast<double>(n_);

  for (std::size_t c = 0; c < n_; ++c) {
    xr_[c] = centroid_[c] + kAlpha * (centroid_[c] - pts_[hi_][c]);
  }
  phase_ = Phase::kReflect;
}

void NelderMead::shrink_next() {
  if (vertex_ == lo_) ++vertex_;
  if (vertex_ > n_) {
    iterate();
    return;
  }
  std::vector<double>& p = pts_[vertex_];
  for (std::size_t c = 0; c < n_; ++c) {
    p[c] = pts_[lo_][c] + kSigma * (p[c] - pts_[lo_][c]);
  }
}

void NelderMead::replace_worst(const std::vector<double>& x, double fx) {
  pts_[hi_] = x;
  vals_[hi_] = fx;
}

Result nelder_mead_minimize(const Objective& objective, std::vector<double> x0,
                            const NelderMeadOptions& options) {
  NelderMead nelder_mead(std::move(x0), options);
  return minimize(nelder_mead, objective);
}

}  // namespace qq::optim
