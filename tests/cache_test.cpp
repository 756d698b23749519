// Tests for the fleet-wide solve cache (src/cache): canonical
// fingerprinting (isomorphism invariance, near-miss separation, collision
// sweep, permutation round-trips), SolveCache semantics (hit/miss, seed and
// spec separation, in-flight coalescing, exactly-once fill under a
// 16-thread hammer, bounded capacity with cost-aware eviction, budget-
// truncated results never inserted), warm-start transfer, and the
// cache-on == cache-off bit-parity of the QAOA^2 and service layers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cache/fingerprint.hpp"
#include "cache/solve_cache.hpp"
#include "cache/warm_start.hpp"
#include "maxcut/cut.hpp"
#include "ml/features.hpp"
#include "qaoa2/qaoa2.hpp"
#include "qgraph/generators.hpp"
#include "qgraph/graph.hpp"
#include "service/service.hpp"
#include "solver/registry.hpp"
#include "solver/solver.hpp"
#include "util/rng.hpp"

namespace qq::cache {
namespace {

using graph::Graph;
using graph::NodeId;

// ------------------------------------------------------------ helpers ----

std::vector<NodeId> random_permutation(std::size_t n, std::uint64_t seed) {
  std::vector<NodeId> perm(n);
  std::iota(perm.begin(), perm.end(), NodeId{0});
  util::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[util::uniform_u64(rng, i)]);
  }
  return perm;
}

Graph permuted(const Graph& g, const std::vector<NodeId>& perm) {
  Graph h(g.num_nodes());
  for (const graph::Edge& e : g.edges()) {
    h.add_edge(perm[static_cast<std::size_t>(e.u)],
               perm[static_cast<std::size_t>(e.v)], e.w);
  }
  return h;
}

/// Deterministic counting backend: remembers how many times do_solve ran
/// (the exactly-once probes) and derives its cut from the seed so distinct
/// seeds produce distinct, recount-consistent results.
class CountingSolver final : public solver::Solver {
 public:
  explicit CountingSolver(double fill_ms = 0.0) : fill_ms_(fill_ms) {}

  std::string_view name() const noexcept override { return "counting"; }
  sched::ResourceKind resource_kind() const noexcept override {
    return sched::ResourceKind::kClassical;
  }
  int solves() const noexcept {
    return solves_.load(std::memory_order_relaxed);
  }

 protected:
  solver::SolveReport do_solve(
      const solver::SolveRequest& request) const override {
    solves_.fetch_add(1, std::memory_order_relaxed);
    if (fill_ms_ > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(fill_ms_));
    }
    solver::SolveReport report;
    const auto n = static_cast<std::size_t>(request.graph->num_nodes());
    report.cut.assignment.resize(n);
    util::Rng rng(request.seed);
    for (std::size_t i = 0; i < n; ++i) {
      report.cut.assignment[i] =
          static_cast<std::uint8_t>(util::uniform_u64(rng, 2));
    }
    report.cut.value =
        maxcut::cut_value(*request.graph, report.cut.assignment);
    report.evaluations = 1;
    return report;
  }

 private:
  double fill_ms_;
  mutable std::atomic<int> solves_{0};
};

// -------------------------------------------------------- fingerprint ----

TEST(Fingerprint, PermutedCopiesShareKeyOnStructuredFamilies) {
  util::Rng rng(7);
  std::vector<Graph> graphs;
  graphs.push_back(graph::cycle_graph(9));
  graphs.push_back(graph::complete_graph(7));
  graphs.push_back(graph::star_graph(10));
  graphs.push_back(graph::grid_2d(3, 4));
  graphs.push_back(graph::barbell_graph(4, 2));
  graphs.push_back(
      graph::erdos_renyi(14, 0.35, rng, graph::WeightMode::kUniform01));
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const Graph& g = graphs[gi];
    const Fingerprint fg = fingerprint_graph(g);
    ASSERT_TRUE(fg.canonical) << "graph " << gi;
    for (std::uint64_t s = 1; s <= 4; ++s) {
      const auto perm =
          random_permutation(static_cast<std::size_t>(g.num_nodes()),
                             0x5eed0000 + 16 * gi + s);
      const Fingerprint fh = fingerprint_graph(permuted(g, perm));
      ASSERT_TRUE(fh.canonical) << "graph " << gi << " perm " << s;
      EXPECT_EQ(fg.key, fh.key) << "graph " << gi << " perm " << s;
      EXPECT_EQ(fg.digest, fh.digest);
      EXPECT_TRUE(same_canonical_graph(fg, fh));
    }
  }
}

TEST(Fingerprint, NearMissPairsHashApart) {
  util::Rng rng(11);
  const Graph g = graph::erdos_renyi(12, 0.4, rng);
  const Fingerprint fg = fingerprint_graph(g);

  // One weight flipped.
  Graph weight_flip(g.num_nodes());
  bool flipped = false;
  for (const graph::Edge& e : g.edges()) {
    double w = e.w;
    if (!flipped) {
      w = -w;
      flipped = true;
    }
    weight_flip.add_edge(e.u, e.v, w);
  }
  ASSERT_TRUE(flipped);
  const Fingerprint ff = fingerprint_graph(weight_flip);
  EXPECT_FALSE(same_canonical_graph(fg, ff));
  EXPECT_NE(fg.key ^ fg.digest, ff.key ^ ff.digest);

  // One edge moved to a previously absent slot.
  Graph edge_move(g.num_nodes());
  std::vector<std::vector<bool>> present(
      static_cast<std::size_t>(g.num_nodes()),
      std::vector<bool>(static_cast<std::size_t>(g.num_nodes()), false));
  for (const graph::Edge& e : g.edges()) {
    present[static_cast<std::size_t>(e.u)][static_cast<std::size_t>(e.v)] =
        true;
    present[static_cast<std::size_t>(e.v)][static_cast<std::size_t>(e.u)] =
        true;
  }
  NodeId free_u = 0, free_v = 0;
  for (NodeId u = 0; u < g.num_nodes() && free_v == 0; ++u) {
    for (NodeId v = u + 1; v < g.num_nodes(); ++v) {
      if (!present[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)]) {
        free_u = u;
        free_v = v;
        break;
      }
    }
  }
  ASSERT_NE(free_v, 0) << "graph unexpectedly complete";
  bool moved = false;
  for (const graph::Edge& e : g.edges()) {
    if (!moved) {
      edge_move.add_edge(free_u, free_v, e.w);
      moved = true;
      continue;
    }
    edge_move.add_edge(e.u, e.v, e.w);
  }
  const Fingerprint fm = fingerprint_graph(edge_move);
  EXPECT_FALSE(same_canonical_graph(fg, fm));
  EXPECT_NE(fg.key, fm.key);
}

TEST(Fingerprint, ZeroWeightSignsNormalize) {
  EXPECT_EQ(weight_bits(0.0), weight_bits(-0.0));
  EXPECT_NE(weight_bits(1.0), weight_bits(-1.0));
}

TEST(Fingerprint, CollisionSweepTenThousandGraphsIsClean) {
  // 10k seeded random graphs: distinct canonical forms must never share
  // (key, digest) — the pair the cache's bucket lookup rides on.
  util::Rng rng(0xc0111dedULL);
  std::unordered_map<std::uint64_t, Fingerprint> seen;
  int checked = 0;
  for (int i = 0; i < 10000; ++i) {
    const NodeId n = static_cast<NodeId>(4 + util::uniform_u64(rng, 15));
    const double p = 0.15 + 0.7 * util::uniform(rng);
    const auto mode = (i % 2 == 0) ? graph::WeightMode::kUnit
                                   : graph::WeightMode::kUniform01;
    const Graph g = graph::erdos_renyi(n, p, rng, mode);
    Fingerprint fp = fingerprint_graph(g);
    const std::uint64_t combined = fp.key ^ (fp.digest * 0x9e3779b97f4a7c15ULL);
    const auto it = seen.find(combined);
    if (it != seen.end()) {
      // Equal combined bits: the canonical forms must be identical (the
      // graphs are isomorphic), otherwise it's a real collision.
      EXPECT_TRUE(same_canonical_graph(it->second, fp))
          << "collision at sweep index " << i;
    } else {
      seen.emplace(combined, std::move(fp));
    }
    ++checked;
  }
  EXPECT_EQ(checked, 10000);
  // The sweep must have produced a healthy variety, not one degenerate key
  // (small unit-weight graphs repeat isomorphism classes, so < 10000).
  EXPECT_GT(seen.size(), 8000u);
}

TEST(Fingerprint, AssignmentPermutationRoundTrips) {
  util::Rng rng(23);
  const Graph g = graph::erdos_renyi(13, 0.45, rng,
                                     graph::WeightMode::kUniform01);
  const Fingerprint fp = fingerprint_graph(g);
  maxcut::Assignment original(static_cast<std::size_t>(g.num_nodes()));
  for (std::size_t i = 0; i < original.size(); ++i) {
    original[i] = static_cast<std::uint8_t>(util::uniform_u64(rng, 2));
  }
  const maxcut::Assignment canonical = to_canonical(fp, original);
  EXPECT_EQ(from_canonical(fp, canonical), original);

  // The same CANONICAL assignment pushed through an isomorphic copy's
  // fingerprint must recount to the same value on the copy.
  const auto perm =
      random_permutation(static_cast<std::size_t>(g.num_nodes()), 99);
  const Graph h = permuted(g, perm);
  const Fingerprint fh = fingerprint_graph(h);
  ASSERT_TRUE(fp.canonical && fh.canonical);
  ASSERT_TRUE(same_canonical_graph(fp, fh));
  const maxcut::Assignment on_h = from_canonical(fh, canonical);
  EXPECT_NEAR(maxcut::cut_value(h, on_h), maxcut::cut_value(g, original),
              1e-9);
}

// --------------------------------------------------------- SolveCache ----

solver::SolveRequest request_for(const Graph& g, std::uint64_t seed) {
  solver::SolveRequest r;
  r.graph = &g;
  r.seed = seed;
  return r;
}

TEST(SolveCache, MissThenHitIsBitIdentical) {
  util::Rng rng(31);
  const Graph g = graph::erdos_renyi(12, 0.4, rng);
  CountingSolver solver;
  SolveCache cache;

  const solver::SolveReport cold =
      cache.solve_through(solver, request_for(g, 5), "counting");
  EXPECT_EQ(solver.solves(), 1);
  const solver::SolveReport warm =
      cache.solve_through(solver, request_for(g, 5), "counting");
  EXPECT_EQ(solver.solves(), 1) << "hit must not re-solve";
  EXPECT_EQ(warm.cut.value, cold.cut.value);
  EXPECT_EQ(warm.cut.assignment, cold.cut.assignment);
  EXPECT_EQ(warm.evaluations, cold.evaluations);
  EXPECT_EQ(warm.metric("cache_hit", 0.0), 1.0);
  EXPECT_EQ(cold.metric("cache_hit", 0.0), 0.0);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.in_flight, 0u);
}

TEST(SolveCache, SeedSensitiveKeysSeparateSeeds) {
  util::Rng rng(37);
  const Graph g = graph::erdos_renyi(10, 0.5, rng);
  CountingSolver solver;
  SolveCache cache;
  const auto a = cache.solve_through(solver, request_for(g, 1), "counting");
  const auto b = cache.solve_through(solver, request_for(g, 2), "counting");
  EXPECT_EQ(solver.solves(), 2) << "distinct seeds are distinct entries";
  EXPECT_EQ(a.cut.value, maxcut::cut_value(g, a.cut.assignment));
  EXPECT_EQ(b.cut.value, maxcut::cut_value(g, b.cut.assignment));
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(SolveCache, SolverKeySeparatesConfigurations) {
  util::Rng rng(41);
  const Graph g = graph::erdos_renyi(10, 0.5, rng);
  CountingSolver solver;
  SolveCache cache;
  cache.solve_through(solver, request_for(g, 3), "counting:a");
  cache.solve_through(solver, request_for(g, 3), "counting:b");
  EXPECT_EQ(solver.solves(), 2);
  cache.solve_through(solver, request_for(g, 3), "counting:a");
  EXPECT_EQ(solver.solves(), 2);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(SolveCache, IsomorphicRequestsShareOneEntry) {
  util::Rng rng(43);
  const Graph g = graph::erdos_renyi(12, 0.4, rng,
                                     graph::WeightMode::kUniform01);
  const auto perm =
      random_permutation(static_cast<std::size_t>(g.num_nodes()), 7);
  const Graph h = permuted(g, perm);
  ASSERT_TRUE(fingerprint_graph(g).canonical);
  ASSERT_TRUE(fingerprint_graph(h).canonical);

  CountingSolver solver;
  SolveCache cache;
  const auto on_g = cache.solve_through(solver, request_for(g, 9), "counting");
  const auto on_h = cache.solve_through(solver, request_for(h, 9), "counting");
  EXPECT_EQ(solver.solves(), 1) << "isomorphic copy must hit";
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(on_h.cut.value, on_g.cut.value);
  // The mapped assignment is a real cut of h with the cached value.
  EXPECT_NEAR(maxcut::cut_value(h, on_h.cut.assignment), on_h.cut.value,
              1e-9);
}

TEST(SolveCache, TrivialGraphsBypass) {
  CountingSolver solver;
  SolveCache cache;
  Graph empty(3);  // no edges
  const auto r = cache.solve_through(solver, request_for(empty, 1), "counting");
  EXPECT_EQ(r.cut.value, 0.0);
  EXPECT_EQ(solver.solves(), 0) << "Solver base guard answers trivial graphs";
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(SolveCache, BudgetTruncatedResultsAreNotInserted) {
  util::Rng rng(53);
  const Graph g = graph::erdos_renyi(10, 0.5, rng);
  CountingSolver solver;
  SolveCache cache;
  solver::SolveRequest budgeted = request_for(g, 1);
  budgeted.eval_budget = 1;
  cache.solve_through(solver, budgeted, "counting");
  EXPECT_EQ(cache.stats().uncacheable, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
  // The budget-less request must solve cold, not consume a poisoned entry.
  cache.solve_through(solver, request_for(g, 1), "counting");
  EXPECT_EQ(solver.solves(), 2);
  EXPECT_EQ(cache.stats().inserts, 1u);
}

TEST(SolveCache, CapacityIsBounded) {
  CacheOptions opts;
  opts.shards = 1;
  opts.capacity = 3;
  SolveCache cache(opts);
  CountingSolver solver;

  util::Rng rng(59);
  std::vector<Graph> graphs;
  for (int i = 0; i < 4; ++i) {
    graphs.push_back(graph::erdos_renyi(8 + 2 * i, 0.6, rng));
  }
  for (int i = 0; i < 3; ++i) {
    cache.solve_through(solver, request_for(graphs[0 + i], 1), "counting");
  }
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  // A hit neither grows the cache nor evicts; the fourth fill overflows it.
  cache.solve_through(solver, request_for(graphs[0], 1), "counting");
  EXPECT_EQ(cache.stats().hits, 1u);
  cache.solve_through(solver, request_for(graphs[3], 1), "counting");
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(solver.solves(), 4);
}

TEST(SolveCache, CostAwareEvictionPrefersCheapVictims) {
  CacheOptions opts;
  opts.shards = 1;
  opts.capacity = 2;
  SolveCache cache(opts);

  util::Rng rng(61);
  const Graph expensive_g = graph::erdos_renyi(10, 0.6, rng);
  const Graph cheap_g = graph::erdos_renyi(12, 0.6, rng);
  const Graph newcomer = graph::erdos_renyi(14, 0.6, rng);

  CountingSolver expensive(/*fill_ms=*/30.0);
  CountingSolver cheap(/*fill_ms=*/0.0);
  cache.solve_through(expensive, request_for(expensive_g, 1), "counting");
  cache.solve_through(cheap, request_for(cheap_g, 1), "counting");
  // Overflow: a near-zero-cost fill (the older cheap entry or the newcomer
  // itself) is the victim; the 30 ms fill outranks both.
  cache.solve_through(cheap, request_for(newcomer, 1), "counting");
  EXPECT_EQ(cache.stats().evictions, 1u);

  const int before = expensive.solves();
  cache.solve_through(expensive, request_for(expensive_g, 1), "counting");
  EXPECT_EQ(expensive.solves(), before)
      << "expensive fill must survive cost-aware eviction";
}

TEST(SolveCache, PerClassCountersAttribute) {
  util::Rng rng(71);
  const Graph g = graph::erdos_renyi(10, 0.5, rng);
  CountingSolver solver;
  SolveCache cache;
  const int tenant_a = cache.register_class("tenant-a");
  const int tenant_b = cache.register_class("tenant-b");
  ASSERT_GE(tenant_a, 0);
  ASSERT_GE(tenant_b, 0);

  CachePolicy pa;
  pa.class_id = tenant_a;
  CachePolicy pb;
  pb.class_id = tenant_b;
  cache.solve_through(solver, request_for(g, 1), "counting", pa);  // miss
  cache.solve_through(solver, request_for(g, 1), "counting", pb);  // hit
  const auto classes = cache.class_stats();
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[static_cast<std::size_t>(tenant_a)].name, "tenant-a");
  EXPECT_EQ(classes[static_cast<std::size_t>(tenant_a)].misses, 1u);
  EXPECT_EQ(classes[static_cast<std::size_t>(tenant_a)].hits, 0u);
  EXPECT_EQ(classes[static_cast<std::size_t>(tenant_b)].hits, 1u);
  EXPECT_EQ(classes[static_cast<std::size_t>(tenant_b)].misses, 0u);
}

TEST(SolveCache, SixteenThreadHammerFillsExactlyOnce) {
  // 16 threads race the same (graph, seed, key) request through one cache:
  // the backend must run exactly once, every thread must observe the
  // identical report, and hits + coalesced + misses must balance.
  util::Rng rng(73);
  const Graph g = graph::erdos_renyi(14, 0.4, rng,
                                     graph::WeightMode::kUniform01);
  CountingSolver solver(/*fill_ms=*/20.0);
  SolveCache cache;

  constexpr int kThreads = 16;
  std::vector<solver::SolveReport> reports(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      reports[static_cast<std::size_t>(t)] =
          cache.solve_through(solver, request_for(g, 5), "counting");
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(solver.solves(), 1) << "concurrent misses must coalesce";
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(reports[static_cast<std::size_t>(t)].cut.value,
              reports[0].cut.value);
    EXPECT_EQ(reports[static_cast<std::size_t>(t)].cut.assignment,
              reports[0].cut.assignment);
  }
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  // Every non-filling thread is served from the cache; `coalesced`
  // additionally counts the subset that had to wait on the in-flight fill.
  EXPECT_EQ(stats.hits, kThreads - 1u);
  EXPECT_LE(stats.coalesced, stats.hits);
  EXPECT_EQ(stats.in_flight, 0u);
}

TEST(SolveCache, HammerAcrossManyKeysStaysExactlyOncePerKey) {
  util::Rng rng(79);
  constexpr int kGraphs = 8;
  constexpr int kThreads = 16;
  std::vector<Graph> graphs;
  for (int i = 0; i < kGraphs; ++i) {
    graphs.push_back(graph::erdos_renyi(10 + i, 0.5, rng));
  }
  CountingSolver solver(/*fill_ms=*/2.0);
  SolveCache cache;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < kGraphs; ++i) {
          const int idx = (i + t) % kGraphs;
          cache.solve_through(
              solver, request_for(graphs[static_cast<std::size_t>(idx)], 1),
              "counting");
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(solver.solves(), kGraphs) << "one fill per distinct key";
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, static_cast<std::uint64_t>(kGraphs));
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * 3u * kGraphs);
}

// ---------------------------------------------------------- warm start ----

TEST(WarmStart, TransferGrowsAndShrinksSchedules) {
  const std::vector<double> p2 = {0.1, 0.3, 0.8, 0.4};  // [g1,g2,b1,b2]
  const std::vector<double> grown = transfer_parameters(p2, 4);
  ASSERT_EQ(grown.size(), 8u);
  const std::vector<double> shrunk = transfer_parameters(grown, 2);
  ASSERT_EQ(shrunk.size(), 4u);
  // Endpoints survive both directions of the reshape.
  EXPECT_NEAR(shrunk[0], p2[0], 1e-9);
  EXPECT_NEAR(shrunk[1], p2[1], 1e-9);
  EXPECT_EQ(transfer_parameters(p2, 2), p2) << "same depth is identity";
  EXPECT_TRUE(transfer_parameters({0.1, 0.2, 0.3}, 2).empty())
      << "odd-sized input is rejected";
  EXPECT_TRUE(transfer_parameters(p2, 0).empty());
}

TEST(WarmStart, AdvisorPredictsFromRecordedObservations) {
  WarmStartAdvisor advisor;
  util::Rng rng(83);
  EXPECT_TRUE(advisor
                  .predict(ml::graph_features(graph::cycle_graph(8)), 2)
                  .empty())
      << "empty advisor must predict nothing";
  for (int i = 0; i < 8; ++i) {
    const Graph g = graph::erdos_renyi(10 + i, 0.5, rng);
    advisor.record(ml::graph_features(g), 2, {0.1, 0.2, 0.3, 0.4},
                   static_cast<double>(i));
  }
  EXPECT_EQ(advisor.size(), 8u);
  const Graph probe = graph::erdos_renyi(12, 0.5, rng);
  const std::vector<double> at_depth2 =
      advisor.predict(ml::graph_features(probe), 2);
  ASSERT_EQ(at_depth2.size(), 4u);
  const std::vector<double> at_depth3 =
      advisor.predict(ml::graph_features(probe), 3);
  ASSERT_EQ(at_depth3.size(), 6u) << "schedule transferred to target depth";
}

TEST(WarmStart, CacheMissConsultsAdvisorForQaoaBackend) {
  util::Rng rng(89);
  const Graph g = graph::erdos_renyi(10, 0.5, rng);
  SolveCache cache;
  const solver::SolverPtr qaoa =
      solver::SolverRegistry::global().make("qaoa:p=1,iters=6,shots=64");
  ASSERT_EQ(qaoa->warm_start_dimension(), 2);

  // Prime the advisor with one observation so predict() has material.
  cache.advisor().record(ml::graph_features(g), 1, {0.4, 0.7}, 1.0);
  CachePolicy warm;
  warm.warm_start = true;
  const solver::SolveReport report = cache.solve_through(
      *qaoa, request_for(g, 3), "qaoa:p=1,iters=6,shots=64", warm);
  EXPECT_EQ(cache.stats().warm_starts, 1u);
  EXPECT_EQ(report.cut.value, maxcut::cut_value(g, report.cut.assignment));
  // Fills that carry optimized parameters feed the advisor back.
  EXPECT_GE(cache.advisor().size(), 2u);
}

// ------------------------------------------------- pipeline bit parity ----

TEST(CacheParity, Qaoa2CacheOnEqualsCacheOff) {
  util::Rng rng(97);
  const Graph g = graph::erdos_renyi(26, 0.25, rng,
                                     graph::WeightMode::kUniform01);
  qaoa2::Qaoa2Options opts;
  opts.max_qubits = 8;
  opts.sub_solver_spec = "qaoa:p=1,iters=8,shots=64";
  opts.deeper_solver_spec = "gw:rounds=4";
  opts.merge_solver_spec = "qaoa:p=1,iters=8,shots=64";
  opts.seed = 12345;

  const qaoa2::Qaoa2Result uncached = qaoa2::solve_qaoa2(g, opts);

  SolveCache cache;
  opts.solve_cache = &cache;
  const qaoa2::Qaoa2Result cold = qaoa2::solve_qaoa2(g, opts);
  EXPECT_EQ(cold.cut.value, uncached.cut.value);
  EXPECT_EQ(cold.cut.assignment, uncached.cut.assignment);
  EXPECT_GT(cache.stats().misses, 0u);

  const qaoa2::Qaoa2Result warm = qaoa2::solve_qaoa2(g, opts);
  EXPECT_EQ(warm.cut.value, uncached.cut.value);
  EXPECT_EQ(warm.cut.assignment, uncached.cut.assignment);
  EXPECT_GT(cache.stats().hits, 0u) << "identical rerun must hit";
}

TEST(CacheParity, ServiceCachedEqualsServiceUncached) {
  util::Rng rng(101);
  const Graph g = graph::erdos_renyi(20, 0.3, rng);

  const auto run = [&](bool cached) {
    service::ServiceOptions sopts;
    if (!cached) sopts.cache.reset();
    service::SolveService service(sopts);
    service::ServiceRequest req;
    req.graph = g;
    req.solver_spec = "gw:rounds=4";
    req.seed = 7;
    req.max_qubits = 8;
    const service::RequestTicket a = service.submit(req);
    const service::RequestTicket b = service.submit(req);
    service.wait(a);
    service.wait(b);
    EXPECT_EQ(a.outcome().status, service::RequestStatus::kCompleted);
    EXPECT_EQ(b.outcome().status, service::RequestStatus::kCompleted);
    EXPECT_EQ(a.outcome().cut.value, b.outcome().cut.value);
    const service::ServiceStats stats = service.stats();
    EXPECT_EQ(stats.cache_enabled, cached);
    if (cached) {
      EXPECT_GT(stats.cache.hits + stats.cache.coalesced, 0u)
          << "the repeated request must share the first one's fills";
      EXPECT_FALSE(service::render_stats(stats).find("cache:") ==
                   std::string::npos);
    }
    return a.outcome().cut;
  };

  const maxcut::CutResult cached = run(true);
  const maxcut::CutResult uncached = run(false);
  EXPECT_EQ(cached.value, uncached.value);
  EXPECT_EQ(cached.assignment, uncached.assignment);
}

TEST(CacheParity, SpecsDifferingOnlyInPNeverShareEntries) {
  // A driver role's cache key is its spec string: two drivers sharing one
  // cache whose specs differ only in p must never serve each other's
  // entries, and each must match its own uncached solve.
  util::Rng rng(107);
  const Graph g = graph::erdos_renyi(20, 0.3, rng);
  const auto options_for = [](const char* spec) {
    qaoa2::Qaoa2Options opts;
    opts.max_qubits = 8;
    opts.sub_solver_spec = spec;
    opts.merge_solver_spec = spec;
    opts.seed = 5;
    return opts;
  };
  qaoa2::Qaoa2Options p1 = options_for("qaoa:p=1,iters=8");
  qaoa2::Qaoa2Options p2 = options_for("qaoa:p=2,iters=8");
  const qaoa2::Qaoa2Result uncached1 = qaoa2::solve_qaoa2(g, p1);
  const qaoa2::Qaoa2Result uncached2 = qaoa2::solve_qaoa2(g, p2);

  SolveCache cache;
  p1.solve_cache = &cache;
  p2.solve_cache = &cache;
  const qaoa2::Qaoa2Result cached1 = qaoa2::solve_qaoa2(g, p1);
  const qaoa2::Qaoa2Result cached2 = qaoa2::solve_qaoa2(g, p2);
  EXPECT_GT(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().hits, 0u) << "a p=2 solve was served a p=1 entry";
  EXPECT_EQ(cached1.cut.value, uncached1.cut.value);
  EXPECT_EQ(cached1.cut.assignment, uncached1.cut.assignment);
  EXPECT_EQ(cached2.cut.value, uncached2.cut.value);
  EXPECT_EQ(cached2.cut.assignment, uncached2.cut.assignment);

  // The same spec does share: a rerun of the first driver hits.
  const qaoa2::Qaoa2Result again1 = qaoa2::solve_qaoa2(g, p1);
  EXPECT_GT(cache.stats().hits, 0u);
  EXPECT_EQ(again1.cut.assignment, uncached1.cut.assignment);
}

TEST(CacheParity, UncachedServiceNeverTouchesACache) {
  // "No cache" is ServiceOptions::cache = nullopt: the service owns no
  // SolveCache and reports no cache traffic.
  util::Rng rng(103);
  service::ServiceOptions sopts;
  sopts.cache.reset();
  service::SolveService service(sopts);
  EXPECT_EQ(service.solve_cache(), nullptr);
  service::ServiceRequest req;
  req.graph = graph::erdos_renyi(14, 0.4, rng);
  req.solver_spec = "gw:rounds=4";
  req.seed = 3;
  req.max_qubits = 8;
  const service::RequestTicket t = service.submit(req);
  service.wait(t);
  EXPECT_EQ(t.outcome().status, service::RequestStatus::kCompleted);
  const service::ServiceStats stats = service.stats();
  EXPECT_FALSE(stats.cache_enabled);
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, 0u);
  EXPECT_EQ(service::render_stats(stats).find("cache:"), std::string::npos);
}

}  // namespace
}  // namespace qq::cache
