#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace qq::util {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  const std::size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid),
                   xs.end());
  double hi = xs[mid];
  if (xs.size() % 2 == 1) return hi;
  std::nth_element(xs.begin(),
                   xs.begin() + static_cast<std::ptrdiff_t>(mid - 1),
                   xs.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (xs[mid - 1] + hi);
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  q = std::clamp(q, 0.0, 100.0);
  std::sort(xs.begin(), xs.end());
  const double rank = q / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

}  // namespace qq::util
