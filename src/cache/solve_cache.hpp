#pragma once
// Fleet-wide memoization of leaf solves (ROADMAP item 4): a concurrent,
// sharded, bounded cache keyed on the CANONICAL fingerprint of the
// sub-graph (fingerprint.hpp) combined with the solver key (the registry
// spec string, which carries every solver setting) and the request seed,
// so a hot subgraph is solved once per fleet, not once per request, and
// cache-on results stay bit-for-bit identical to cache-off (the fuzz
// equality oracle's contract). "No cache" is a null SolveCache* at the
// call site, never a mode of this class.
//
//   lookup     hash(fingerprint.key, digest, solver_key, seed) -> shard
//              bucket -> exact identity check (node count, full canonical
//              edge list, solver key, seed): equal 64-bit hashes are never
//              trusted, so a hash collision costs a `collisions` counter
//              tick and a miss, never a wrong answer.
//   hit        the stored canonical assignment is permuted onto the
//              requester's labeling via the requester's own fingerprint,
//              wall_seconds is overwritten with the hit latency, and a
//              `cache_hit=1` metric is appended; evaluations/solve counts
//              and the cut value are the fill's, untouched.
//   miss       exactly-once fill: the first arrival publishes an in-flight
//              entry and solves; late arrivals wait on the shard's CondVar
//              (coalesced counter) instead of re-solving. A failed fill
//              erases the in-flight entry and wakes the waiters, the first
//              of which becomes the next filler.
//   eviction   GreedyDual cost-aware: entry priority = shard clock +
//              fill_cost_seconds, refreshed on hit; the minimum-priority
//              READY entry is evicted and the clock jumps to its priority.
//              In-flight entries are pinned.
//   safety     results produced under a truncating budget (request
//              eval budget, armed context eval budget, or a context
//              that stopped mid-fill) are returned but never inserted — a
//              truncated report must not poison budget-less requests.
//
// Warm starts on miss (CachePolicy::warm_start, default OFF because they
// change optimizer trajectories) consult the WarmStartAdvisor for a
// transferred (gamma, beta) schedule and hand it to the backend via
// SolveRequest::initial_parameters.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cache/fingerprint.hpp"
#include "cache/warm_start.hpp"
#include "solver/solver.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace qq::cache {

struct CacheOptions {
  /// Shard count, rounded up to a power of two. More shards, less
  /// contention; capacity is split evenly across them.
  std::size_t shards = 8;
  /// Total entry capacity across all shards (>= shard count enforced).
  std::size_t capacity = 4096;
  WarmStartOptions warm_start;
  FingerprintOptions fingerprint;
};

/// Per-call cache behavior, carried by the caller (the service, Qaoa2Options)
/// rather than the cache so one cache serves many policies.
struct CachePolicy {
  /// Seed COBYLA on a miss with a transferred schedule from the advisor.
  bool warm_start = false;
  /// Workload class for per-class hit/miss attribution (register_class);
  /// kNoClass records only the totals.
  int class_id = -1;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  /// Concurrent misses on one key that waited for the in-flight fill
  /// instead of re-solving.
  std::uint64_t coalesced = 0;
  /// 64-bit key collisions caught by the exact identity check.
  std::uint64_t collisions = 0;
  /// Misses that ran with a transferred warm-start schedule.
  std::uint64_t warm_starts = 0;
  /// Fills whose report was served but not inserted (truncating budgets).
  std::uint64_t uncacheable = 0;
  /// Gauges.
  std::uint64_t entries = 0;
  std::uint64_t in_flight = 0;
};

struct ClassCacheStats {
  std::string name;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t coalesced = 0;
};

class SolveCache {
 public:
  static constexpr int kNoClass = -1;
  static constexpr int kMaxClasses = 16;

  explicit SolveCache(CacheOptions options = {});
  ~SolveCache();

  SolveCache(const SolveCache&) = delete;
  SolveCache& operator=(const SolveCache&) = delete;

  /// Solve `request` through the cache. `solver_key` identifies the solver
  /// configuration (registry spec string); two solvers sharing a key MUST
  /// be interchangeable. Trivial graphs (< 2 nodes or no edges) bypass the
  /// cache entirely. Cancellation: waiting on an in-flight fill polls
  /// request.context and rethrows its CancelledError.
  solver::SolveReport solve_through(const solver::Solver& s,
                                    const solver::SolveRequest& request,
                                    std::string_view solver_key,
                                    const CachePolicy& policy = {});

  /// Register a workload class for per-class attribution. At most
  /// kMaxClasses; further registrations return kNoClass (totals only).
  int register_class(std::string name);

  CacheStats stats() const;
  std::vector<ClassCacheStats> class_stats() const;

  WarmStartAdvisor& advisor() noexcept { return advisor_; }
  const WarmStartAdvisor& advisor() const noexcept { return advisor_; }
  const CacheOptions& options() const noexcept { return options_; }

 private:
  struct Entry;
  struct Shard;

  struct ClassCounters {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> coalesced{0};
  };

  Shard& shard_for(std::uint64_t hash) const noexcept;
  void bump_class(int class_id,
                  std::atomic<std::uint64_t> ClassCounters::*counter);

  CacheOptions options_;
  std::size_t shard_mask_ = 0;
  std::size_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  WarmStartAdvisor advisor_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> inserts_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> collisions_{0};
  std::atomic<std::uint64_t> warm_starts_{0};
  std::atomic<std::uint64_t> uncacheable_{0};

  mutable util::Mutex class_mutex_;
  std::array<std::string, kMaxClasses> class_names_ QQ_GUARDED_BY(class_mutex_);
  std::array<ClassCounters, kMaxClasses> class_counters_;
  std::atomic<int> num_classes_{0};
};

}  // namespace qq::cache
