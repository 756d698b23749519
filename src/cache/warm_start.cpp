#include "cache/warm_start.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "ml/knn.hpp"
#include "qaoa/interp.hpp"

namespace qq::cache {

namespace {

/// Linear resampling of one half-schedule (gammas or betas) onto `target`
/// points, preserving the endpoints of the ramp.
std::vector<double> resample(const std::vector<double>& xs,
                             std::size_t target) {
  std::vector<double> out(target, 0.0);
  if (xs.empty() || target == 0) return out;
  if (xs.size() == 1) {
    std::fill(out.begin(), out.end(), xs[0]);
    return out;
  }
  for (std::size_t i = 0; i < target; ++i) {
    const double t = target == 1
                         ? 0.0
                         : static_cast<double>(i) *
                               static_cast<double>(xs.size() - 1) /
                               static_cast<double>(target - 1);
    const auto lo = static_cast<std::size_t>(t);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = t - static_cast<double>(lo);
    out[i] = (1.0 - frac) * xs[lo] + frac * xs[hi];
  }
  return out;
}

}  // namespace

std::vector<double> transfer_parameters(const std::vector<double>& parameters,
                                        int target_layers) {
  if (target_layers <= 0 || parameters.empty() ||
      parameters.size() % 2 != 0) {
    return {};
  }
  const auto p = parameters.size() / 2;
  std::vector<double> gammas(parameters.begin(),
                             parameters.begin() + static_cast<long>(p));
  std::vector<double> betas(parameters.begin() + static_cast<long>(p),
                            parameters.end());
  const auto target = static_cast<std::size_t>(target_layers);
  if (p < target) {
    while (gammas.size() < target) gammas = qaoa::interp_schedule(gammas);
    while (betas.size() < target) betas = qaoa::interp_schedule(betas);
  } else if (p > target) {
    gammas = resample(gammas, target);
    betas = resample(betas, target);
  }
  std::vector<double> out;
  out.reserve(2 * target);
  out.insert(out.end(), gammas.begin(), gammas.end());
  out.insert(out.end(), betas.begin(), betas.end());
  return out;
}

WarmStartAdvisor::WarmStartAdvisor(WarmStartOptions options)
    : options_(options) {
  if (options_.capacity == 0) options_.capacity = 1;
  if (options_.k < 1) options_.k = 1;
}

void WarmStartAdvisor::record(
    const std::array<double, ml::kNumFeatures>& features, int layers,
    const std::vector<double>& parameters) {
  if (layers <= 0 ||
      parameters.size() != static_cast<std::size_t>(2 * layers)) {
    return;
  }
  Observation obs;
  obs.features = features;
  obs.layers = layers;
  obs.parameters = parameters;
  util::MutexLock lock(mutex_);
  if (ring_.size() < options_.capacity) {
    ring_.push_back(std::move(obs));
  } else {
    ring_[next_ % options_.capacity] = std::move(obs);
  }
  ++next_;
}

std::vector<double> WarmStartAdvisor::predict(
    const std::array<double, ml::kNumFeatures>& features,
    int target_layers) const {
  if (target_layers <= 0) return {};
  util::MutexLock lock(mutex_);
  if (ring_.empty()) return {};
  // Prefer the stored layer count closest to the target (exact match
  // first): kNN averages require one shared parameter dimension.
  int best_layers = 0;
  int best_gap = std::numeric_limits<int>::max();
  for (const Observation& obs : ring_) {
    const int gap = std::abs(obs.layers - target_layers);
    if (gap < best_gap ||
        (gap == best_gap && obs.layers > best_layers)) {
      best_gap = gap;
      best_layers = obs.layers;
    }
  }
  ml::ParameterKnn knn;
  for (const Observation& obs : ring_) {
    if (obs.layers != best_layers) continue;
    knn.add(std::vector<double>(obs.features.begin(), obs.features.end()),
            obs.parameters);
  }
  if (knn.size() == 0) return {};
  const std::vector<double> predicted = knn.predict(
      std::vector<double>(features.begin(), features.end()), options_.k);
  return transfer_parameters(predicted, target_layers);
}

std::size_t WarmStartAdvisor::size() const {
  util::MutexLock lock(mutex_);
  return ring_.size();
}

}  // namespace qq::cache
