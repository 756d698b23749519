#include "cache/solve_cache.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <utility>

#include "ml/features.hpp"
#include "util/rng.hpp"

namespace qq::cache {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept {
  util::SplitMix64 sm(h ^ (v * 0x9e3779b97f4a7c15ULL));
  return sm.next();
}

std::size_t round_up_pow2(std::size_t v) noexcept {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

/// One cached (or in-flight) solve. `ready`, `report`, `fill_cost_seconds`
/// and `priority` are guarded by the OWNING shard's mutex — a per-instance
/// relationship the annotations cannot express (same situation as the
/// service's ClassState), enforced by keeping every access inside a
/// MutexLock(shard.mutex) scope in this file.
struct SolveCache::Entry {
  // Immutable identity, set before publication.
  std::string solver_key;
  std::uint64_t seed = 0;
  std::uint64_t digest = 0;
  graph::NodeId num_nodes = 0;
  std::vector<CanonicalEdge> edges;

  // Shard-guarded state.
  bool ready = false;
  solver::SolveReport report;  ///< assignment in CANONICAL labels
  double fill_cost_seconds = 0.0;
  double priority = 0.0;
};

struct SolveCache::Shard {
  util::Mutex mutex;
  util::CondVar cv;
  std::unordered_map<std::uint64_t, std::vector<std::shared_ptr<Entry>>>
      buckets QQ_GUARDED_BY(mutex);
  std::size_t ready_count QQ_GUARDED_BY(mutex) = 0;
  std::size_t filling_count QQ_GUARDED_BY(mutex) = 0;
  /// GreedyDual clock: jumps to the priority of each evicted entry.
  double clock QQ_GUARDED_BY(mutex) = 0.0;
};

SolveCache::SolveCache(CacheOptions options)
    : options_(options), advisor_(options.warm_start) {
  const std::size_t shards = round_up_pow2(std::max<std::size_t>(
      1, options_.shards));
  shard_mask_ = shards - 1;
  per_shard_capacity_ =
      std::max<std::size_t>(1, options_.capacity / shards);
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

SolveCache::~SolveCache() = default;

SolveCache::Shard& SolveCache::shard_for(std::uint64_t hash) const noexcept {
  // The low bits feed the bucket map; shard selection uses the high ones.
  return *shards_[static_cast<std::size_t>(hash >> 32) & shard_mask_];
}

void SolveCache::bump_class(
    int class_id, std::atomic<std::uint64_t> ClassCounters::*counter) {
  if (class_id < 0 ||
      class_id >= num_classes_.load(std::memory_order_acquire)) {
    return;
  }
  (class_counters_[static_cast<std::size_t>(class_id)].*counter)
      .fetch_add(1, std::memory_order_relaxed);
}

int SolveCache::register_class(std::string name) {
  util::MutexLock lock(class_mutex_);
  const int id = num_classes_.load(std::memory_order_relaxed);
  if (id >= kMaxClasses) return kNoClass;
  class_names_[static_cast<std::size_t>(id)] = std::move(name);
  num_classes_.store(id + 1, std::memory_order_release);
  return id;
}

solver::SolveReport SolveCache::solve_through(const solver::Solver& s,
                                              const solver::SolveRequest&
                                                  request,
                                              std::string_view solver_key,
                                              const CachePolicy& policy) {
  // Null graphs and trivial graphs (the Solver base guard answers those
  // without touching a backend) bypass the cache: fingerprinting them would
  // cost more than the solve.
  if (request.graph == nullptr || request.graph->num_nodes() < 2 ||
      request.graph->num_edges() == 0) {
    return s.solve(request);
  }
  const graph::Graph& g = *request.graph;
  if (request.context != nullptr) request.context->throw_if_stopped();

  const Clock::time_point lookup_start = Clock::now();
  const Fingerprint fp = fingerprint_graph(g, options_.fingerprint);
  std::uint64_t hash = mix(fp.key, fp.digest);
  hash = mix(hash, fnv1a(solver_key));
  hash = mix(hash, request.seed);
  Shard& shard = shard_for(hash);

  const auto matches = [&](const Entry& e) {
    return e.num_nodes == fp.num_nodes && e.digest == fp.digest &&
           e.solver_key == solver_key && e.seed == request.seed &&
           e.edges == fp.edges;
  };

  std::shared_ptr<Entry> mine;  ///< in-flight entry this call must fill
  bool counted_coalesce = false;
  bool first_look = true;
  {
    util::MutexLock lock(shard.mutex);
    for (;;) {
      std::shared_ptr<Entry> found;
      const auto bucket = shard.buckets.find(hash);
      if (bucket != shard.buckets.end()) {
        bool mismatch = false;
        for (const std::shared_ptr<Entry>& e : bucket->second) {
          if (matches(*e)) {
            found = e;
            break;
          }
          mismatch = true;
        }
        // Counted on the first pass only — coalesced waiters re-search.
        if (found == nullptr && mismatch && first_look) {
          collisions_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      first_look = false;
      if (found != nullptr && found->ready) {
        // HIT: refresh the GreedyDual priority and hand back the stored
        // report with the assignment permuted onto the requester's labels.
        found->priority = shard.clock + found->fill_cost_seconds;
        solver::SolveReport report = found->report;
        lock.unlock();
        report.cut.assignment = from_canonical(fp, report.cut.assignment);
        report.wall_seconds = seconds_since(lookup_start);
        report.metrics.push_back({"cache_hit", 1.0});
        hits_.fetch_add(1, std::memory_order_relaxed);
        bump_class(policy.class_id, &ClassCounters::hits);
        if (counted_coalesce) {
          bump_class(policy.class_id, &ClassCounters::coalesced);
        }
        return report;
      }
      if (found != nullptr) {
        // In-flight fill by someone else.
        if (!counted_coalesce) {
          counted_coalesce = true;
          coalesced_.fetch_add(1, std::memory_order_relaxed);
        }
        shard.cv.wait_for(lock, std::chrono::milliseconds(1));
        if (request.context != nullptr) request.context->throw_if_stopped();
        continue;  // re-search: ready, still filling, or erased (failed)
      }
      // True miss: publish the in-flight entry this call fills.
      mine = std::make_shared<Entry>();
      mine->solver_key = std::string(solver_key);
      mine->seed = request.seed;
      mine->digest = fp.digest;
      mine->num_nodes = fp.num_nodes;
      mine->edges = fp.edges;
      shard.buckets[hash].push_back(mine);
      ++shard.filling_count;
      break;
    }
  }

  misses_.fetch_add(1, std::memory_order_relaxed);
  bump_class(policy.class_id, &ClassCounters::misses);

  // Warm start: transferred (gamma, beta) schedule from the advisor when
  // the backend declares a parameter dimension and the policy opts in.
  solver::SolveRequest fill_request = request;
  std::vector<double> warm;
  if (policy.warm_start) {
    const int dim = s.warm_start_dimension();
    if (dim > 0 && dim % 2 == 0) {
      warm = advisor_.predict(ml::graph_features(g), dim / 2);
      if (static_cast<int>(warm.size()) == dim) {
        fill_request.initial_parameters = &warm;
        warm_starts_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  // Withdraw the in-flight entry without a result (failed or uncacheable
  // fill) and wake its waiters; the first of them becomes the next filler.
  const auto abandon_fill = [&] {
    util::MutexLock lock(shard.mutex);
    auto bucket = shard.buckets.find(hash);
    if (bucket != shard.buckets.end()) {
      auto& vec = bucket->second;
      vec.erase(std::remove(vec.begin(), vec.end(), mine), vec.end());
      if (vec.empty()) shard.buckets.erase(bucket);
    }
    --shard.filling_count;
    shard.cv.notify_all();
  };

  const Clock::time_point fill_start = Clock::now();
  solver::SolveReport report;
  try {
    report = s.solve(fill_request);
  } catch (...) {
    abandon_fill();
    throw;
  }
  const double fill_cost = seconds_since(fill_start);

  // A result produced under a truncating budget must not poison
  // budget-less requests: serve it, never insert it. Deadline contexts
  // that never tripped are fine — the result is untruncated.
  const bool cacheable =
      !request.eval_budget.has_value() &&
      (request.context == nullptr ||
       (!request.context->eval_budget_armed() &&
        !request.context->stopped()));

  if (!cacheable) {
    uncacheable_.fetch_add(1, std::memory_order_relaxed);
    abandon_fill();
    return report;
  }

  // Teach the advisor from every clean fill that carried a schedule.
  if (!report.parameters.empty() && report.parameters.size() % 2 == 0) {
    advisor_.record(ml::graph_features(g),
                    static_cast<int>(report.parameters.size() / 2),
                    report.parameters, report.cut.value);
  }

  {
    util::MutexLock lock(shard.mutex);
    mine->report = report;
    mine->report.cut.assignment = to_canonical(fp, report.cut.assignment);
    mine->fill_cost_seconds = fill_cost;
    mine->priority = shard.clock + fill_cost;
    mine->ready = true;
    --shard.filling_count;
    ++shard.ready_count;
    inserts_.fetch_add(1, std::memory_order_relaxed);
    while (shard.ready_count > per_shard_capacity_) {
      // GreedyDual eviction: drop the minimum-priority ready entry and
      // advance the clock to it. Linear scan — shards hold a few hundred
      // entries at the default capacity.
      std::uint64_t victim_hash = 0;
      std::shared_ptr<Entry> victim;
      for (const auto& [bhash, vec] : shard.buckets) {
        for (const std::shared_ptr<Entry>& e : vec) {
          if (!e->ready) continue;
          if (victim == nullptr || e->priority < victim->priority) {
            victim = e;
            victim_hash = bhash;
          }
        }
      }
      if (victim == nullptr) break;
      shard.clock = victim->priority;
      auto bucket = shard.buckets.find(victim_hash);
      auto& vec = bucket->second;
      vec.erase(std::remove(vec.begin(), vec.end(), victim), vec.end());
      if (vec.empty()) shard.buckets.erase(bucket);
      --shard.ready_count;
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    shard.cv.notify_all();
  }
  return report;
}

CacheStats SolveCache::stats() const {
  CacheStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.inserts = inserts_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.coalesced = coalesced_.load(std::memory_order_relaxed);
  out.collisions = collisions_.load(std::memory_order_relaxed);
  out.warm_starts = warm_starts_.load(std::memory_order_relaxed);
  out.uncacheable = uncacheable_.load(std::memory_order_relaxed);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    util::MutexLock lock(shard->mutex);
    out.entries += shard->ready_count;
    out.in_flight += shard->filling_count;
  }
  return out;
}

std::vector<ClassCacheStats> SolveCache::class_stats() const {
  const int n = num_classes_.load(std::memory_order_acquire);
  std::vector<ClassCacheStats> out;
  out.reserve(static_cast<std::size_t>(n));
  util::MutexLock lock(class_mutex_);
  for (int i = 0; i < n; ++i) {
    const auto& counters = class_counters_[static_cast<std::size_t>(i)];
    ClassCacheStats row;
    row.name = class_names_[static_cast<std::size_t>(i)];
    row.hits = counters.hits.load(std::memory_order_relaxed);
    row.misses = counters.misses.load(std::memory_order_relaxed);
    row.coalesced = counters.coalesced.load(std::memory_order_relaxed);
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace qq::cache
