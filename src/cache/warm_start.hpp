#pragma once
// Warm-start transfer for cache MISSES (ROADMAP item 4): the cache can't
// hand back a solved report, but it has seen structurally similar graphs —
// so it hands the backend a transferred (gamma, beta) schedule instead of a
// cold COBYLA start.
//
// The advisor is a bounded ring of (ml::graph_features, layers, optimized
// parameters) observations recorded on every cache fill whose report
// carried a parameter vector. On a miss it picks the stored layer count
// closest to the requested one, runs an inverse-distance-weighted kNN over
// the standardized features (ml::ParameterKnn), and reshapes the predicted
// schedule to the target depth with qaoa::interp_schedule (grow) or linear
// resampling (shrink) — the INTERP rule the paper's §5 outlook points at.
//
// Warm starts change optimizer trajectories, so they are OFF by default and
// excluded from the bit-equality oracles; bench_cache and bench_warmstart
// measure the evaluations-to-target win they buy.

#include <array>
#include <cstddef>
#include <vector>

#include "ml/features.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace qq::cache {

struct WarmStartOptions {
  /// Ring capacity: oldest observations are overwritten.
  std::size_t capacity = 1024;
  /// Neighbours consulted per prediction.
  int k = 3;
};

class WarmStartAdvisor {
 public:
  explicit WarmStartAdvisor(WarmStartOptions options = {});

  /// Record an optimized schedule: `parameters` is [gamma..., beta...] of
  /// size 2 * layers. Ignored when layers <= 0 or the size disagrees.
  void record(const std::array<double, ml::kNumFeatures>& features,
              int layers, const std::vector<double>& parameters);

  /// Predict a [gamma..., beta...] schedule of size 2 * target_layers for a
  /// graph with the given features. Returns empty when nothing applicable
  /// has been recorded (never throws for an empty store).
  std::vector<double> predict(
      const std::array<double, ml::kNumFeatures>& features,
      int target_layers) const;

  std::size_t size() const;

 private:
  struct Observation {
    std::array<double, ml::kNumFeatures> features{};
    int layers = 0;
    std::vector<double> parameters;
  };

  WarmStartOptions options_;
  mutable util::Mutex mutex_;
  std::vector<Observation> ring_ QQ_GUARDED_BY(mutex_);
  std::size_t next_ QQ_GUARDED_BY(mutex_) = 0;
};

/// Reshape a [gamma..., beta...] schedule of size 2*p onto 2*target layers:
/// repeated qaoa::interp_schedule when growing, linear resampling when
/// shrinking, identity when equal. Exposed for tests and benches.
std::vector<double> transfer_parameters(const std::vector<double>& parameters,
                                        int target_layers);

}  // namespace qq::cache
