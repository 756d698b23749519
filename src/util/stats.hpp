#pragma once
// Small statistics helpers shared by the benchmark harnesses and tests.

#include <cstddef>
#include <vector>

namespace qq::util {

/// Welford's online mean/variance accumulator: numerically stable single
/// pass.
class RunningStats {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Median via nth_element on a copy; average of middle pair for even sizes.
double median(std::vector<double> xs);
/// Linear-interpolated percentile, q in [0, 100].
double percentile(std::vector<double> xs, double q);

}  // namespace qq::util
