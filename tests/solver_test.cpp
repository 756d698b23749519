// Tests for the unified solver interface and string-spec registry
// (src/solver): name round-trips, adapter-vs-free-function bit-for-bit
// parity, spec parsing errors, solve-count accounting, and the QAOA^2
// registry-dispatch parity pins (cuts captured from the pre-registry
// driver at commit 5598203 must be reproduced exactly).

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "maxcut/anneal.hpp"
#include "maxcut/baselines.hpp"
#include "maxcut/cut.hpp"
#include "maxcut/exact.hpp"
#include "qaoa/qaoa.hpp"
#include "qaoa/rqaoa.hpp"
#include "qaoa2/qaoa2.hpp"
#include "qgraph/generators.hpp"
#include "sdp/gw.hpp"
#include "solver/registry.hpp"
#include "test_graphs.hpp"
#include "util/cancellation.hpp"
#include "util/rng.hpp"

namespace qq::solver {
namespace {

using graph::Graph;

Graph test_graph(std::uint64_t seed = 41, graph::NodeId n = 10,
                 double p = 0.35) {
  return testing::er_fixture(seed, n, p);
}

// ------------------------------------------------------------ registry ----

TEST(Registry, EveryNameRoundTripsThroughSpecParse) {
  const SolverRegistry& registry = SolverRegistry::global();
  const auto names = registry.names();
  ASSERT_FALSE(names.empty());
  for (const std::string& name : names) {
    const SolverPtr s = registry.make(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_EQ(s->name(), name);
    EXPECT_TRUE(registry.contains(name));
  }
}

TEST(Registry, RegistersTheExpectedBackends) {
  const SolverRegistry& registry = SolverRegistry::global();
  for (const char* name : {"qaoa", "rqaoa", "gw", "exact", "anneal",
                           "local-search", "greedy", "random", "best"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }
  EXPECT_FALSE(registry.contains("QAOA"));
  EXPECT_FALSE(registry.contains("goemans"));
}

TEST(Registry, ResourceKinds) {
  const SolverRegistry& registry = SolverRegistry::global();
  for (const char* name : {"qaoa", "rqaoa"}) {
    EXPECT_EQ(registry.make(name)->resource_kind(),
              sched::ResourceKind::kQuantum)
        << name;
  }
  for (const char* name :
       {"gw", "exact", "anneal", "local-search", "greedy", "random"}) {
    EXPECT_EQ(registry.make(name)->resource_kind(),
              sched::ResourceKind::kClassical)
        << name;
  }
  // A mixed best-of occupies a classical slot when run as one task; an
  // all-quantum one a quantum slot.
  EXPECT_EQ(registry.make("best")->resource_kind(),
            sched::ResourceKind::kClassical);
  EXPECT_EQ(registry.make("best:qaoa|rqaoa")->resource_kind(),
            sched::ResourceKind::kQuantum);
}

TEST(Registry, SpecWhitespaceAndParamsParse) {
  const SolverRegistry& registry = SolverRegistry::global();
  EXPECT_EQ(registry.make("  anneal  ")->name(), "anneal");
  EXPECT_EQ(registry.make(" qaoa : p = 2 , iters = 10 ")->name(), "qaoa");
  EXPECT_EQ(registry.make("best: qaoa | gw")->name(), "best");
  // Zero is in range for these: paper schedule, no sampled diagnostic, auto
  // rank. (Out-of-range values are fuzz::malformed_spec_templates().)
  for (const char* spec : {"qaoa:iters=0", "qaoa:shots=0", "gw:rank=0"}) {
    EXPECT_NO_THROW((void)registry.make(spec)) << spec;
  }
}

TEST(Registry, MalformedSpecsThrowNotCrash) {
  const SolverRegistry& registry = SolverRegistry::global();
  for (const char* spec :
       {"", "   ", "nope", ":p=1", "qaoa:p", "qaoa:p=", "qaoa:=2",
        "qaoa:p=abc", "qaoa:bogus=1", "qaoa:p=2,p=3", "qaoa:,",
        "qaoa:shots=4294967296", "qaoa:shots=99999999999999999999",
        "gw:tol=zzz", "gw:rounds=1.5x", "exact:foo=1", "greedy:p=1",
        "best:|", "best:qaoa|", "best:|gw", "best:qaoa|nope",
        "best:qaoa|gw:bogus=1"}) {
    EXPECT_THROW((void)registry.make(spec), std::invalid_argument) << spec;
  }
}

TEST(Registry, HelpListsEveryBackendAndParameters) {
  const std::string help = SolverRegistry::global().help();
  for (const char* needle : {"qaoa", "rqaoa", "gw", "exact", "anneal",
                             "local-search", "greedy", "random", "best",
                             "rounds", "restarts", "shots"}) {
    EXPECT_NE(help.find(needle), std::string::npos) << needle;
  }
}

TEST(Registry, RegisterSolverValidation) {
  SolverRegistry registry;  // private registry; global() stays untouched
  EXPECT_THROW(registry.register_solver("", "", {}, nullptr),
               std::invalid_argument);
  EXPECT_THROW(registry.register_solver("has space", "", {},
                                        SolverRegistry::Factory{}),
               std::invalid_argument);
  EXPECT_THROW(registry.register_solver("a:b", "", {},
                                        SolverRegistry::Factory{}),
               std::invalid_argument);
  registry.register_solver(
      "mine", "test backend", {},
      [](const SolverRegistry&, std::string_view,
         const SolverDefaults& defaults) {
        return SolverRegistry::global().make("greedy", defaults);
      });
  EXPECT_THROW(
      registry.register_solver("mine", "", {}, SolverRegistry::Factory{}),
      std::invalid_argument);
  EXPECT_EQ(registry.make("mine")->name(), "greedy");
  EXPECT_THROW((void)registry.make("qaoa"), std::invalid_argument);
}

// ------------------------------------------- adapter <-> free function ----

TEST(Adapters, QaoaMatchesFreeFunctionBitForBit) {
  const Graph g = test_graph();
  for (const std::uint64_t seed : {5ULL, 77ULL}) {
    const auto rep =
        SolverRegistry::global().make("qaoa:p=2,iters=30")->solve({&g, seed});
    qaoa::QaoaOptions opts;
    opts.layers = 2;
    opts.max_iterations = 30;
    opts.seed = seed;
    const auto direct = qaoa::solve_qaoa(g, opts);
    EXPECT_EQ(rep.cut.value, direct.cut.value);
    EXPECT_EQ(rep.cut.assignment, direct.cut.assignment);
    EXPECT_EQ(rep.evaluations, direct.evaluations);
    EXPECT_EQ(rep.metric("expectation"), direct.expectation);
    EXPECT_EQ(rep.solver, "qaoa");
  }
}

TEST(Adapters, QaoaEvalBudgetCapsIterations) {
  const Graph g = test_graph();
  util::RequestContext context;
  context.arm_eval_budget(12);
  SolveRequest request;
  request.graph = &g;
  request.seed = 5;
  request.context = &context;
  const auto rep =
      SolverRegistry::global().make("qaoa:p=2,iters=40")->solve(request);
  qaoa::QaoaOptions opts;
  opts.layers = 2;
  opts.max_iterations = 12;
  opts.seed = 5;
  const auto direct = qaoa::solve_qaoa(g, opts);
  EXPECT_EQ(rep.cut.value, direct.cut.value);
  EXPECT_EQ(rep.cut.assignment, direct.cut.assignment);
  EXPECT_EQ(rep.evaluations, direct.evaluations);
}

TEST(Adapters, ArmedBudgetNeverRaisesSpecIterations) {
  // A budget far above the spec's iters must leave the solve exactly as it
  // is without a budget: the budget caps `iters`, it never replaces it.
  util::Rng rng(3);
  const Graph g = graph::erdos_renyi(8, 0.5, rng);
  const struct {
    const char* spec;
    int evaluations;
  } cases[] = {{"qaoa:p=1,iters=5", 5}, {"rqaoa:p=1,iters=5,cutoff=4", 20}};
  for (const auto& c : cases) {
    const SolverPtr solver = SolverRegistry::global().make(c.spec);
    const SolveReport plain = solver->solve({&g, 1});
    util::RequestContext context;
    context.arm_eval_budget(1'000'000);
    SolveRequest request{&g, 1};
    request.context = &context;
    const SolveReport budgeted = solver->solve(request);
    EXPECT_EQ(plain.evaluations, c.evaluations) << c.spec;
    EXPECT_EQ(budgeted.evaluations, c.evaluations) << c.spec;
    EXPECT_EQ(budgeted.cut.value, plain.cut.value) << c.spec;
    EXPECT_EQ(budgeted.cut.assignment, plain.cut.assignment) << c.spec;
    EXPECT_EQ(context.evals_remaining(), 1'000'000 - c.evaluations) << c.spec;
  }
}

TEST(Adapters, RqaoaMatchesFreeFunctionBitForBit) {
  const Graph g = test_graph();
  const auto rep = SolverRegistry::global()
                       .make("rqaoa:p=2,iters=25,cutoff=6")
                       ->solve({&g, 5});
  qaoa::RqaoaOptions opts;
  opts.qaoa.layers = 2;
  opts.qaoa.max_iterations = 25;
  opts.qaoa.seed = 5;
  opts.cutoff = 6;
  const auto direct = qaoa::solve_rqaoa(g, opts);
  EXPECT_EQ(rep.cut.value, direct.cut.value);
  EXPECT_EQ(rep.cut.assignment, direct.cut.assignment);
  EXPECT_EQ(rep.evaluations, direct.total_evaluations);
  EXPECT_EQ(rep.metric("rounds"), direct.rounds);
}

TEST(Adapters, GwMatchesFreeFunctionWithHistoricalSalt) {
  const Graph g = test_graph();
  for (const std::uint64_t seed : {5ULL, 77ULL}) {
    const auto rep =
        SolverRegistry::global().make("gw:rounds=20")->solve({&g, seed});
    sdp::GwOptions opts;
    opts.slicings = 20;
    opts.seed = seed;
    opts.sdp.seed = seed ^ 0x5d9ULL;  // the pre-registry driver's salt
    const auto direct = sdp::goemans_williamson(g, opts);
    EXPECT_EQ(rep.cut.value, direct.best.value);
    EXPECT_EQ(rep.cut.assignment, direct.best.assignment);
    EXPECT_EQ(rep.metric("average_value"), direct.average_value);
  }
}

TEST(Adapters, ExactMatchesFreeFunction) {
  const Graph g = test_graph();
  const auto rep = SolverRegistry::global().make("exact")->solve({&g, 123});
  const auto direct = maxcut::solve_exact(g);
  EXPECT_EQ(rep.cut.value, direct.value);
  EXPECT_EQ(rep.cut.assignment, direct.assignment);
}

TEST(Adapters, AnnealMatchesFreeFunctionWithHistoricalSalt) {
  const Graph g = test_graph();
  const auto rep = SolverRegistry::global()
                       .make("anneal:sweeps=50,t0=1.5,t1=0.05")
                       ->solve({&g, 5});
  util::Rng rng(5ULL ^ 0xa22ea1ULL);  // the pre-registry driver's salt
  maxcut::AnnealOptions opts;
  opts.sweeps = 50;
  opts.t_initial = 1.5;
  opts.t_final = 0.05;
  const auto direct = maxcut::simulated_annealing(g, rng, opts);
  EXPECT_EQ(rep.cut.value, direct.value);
  EXPECT_EQ(rep.cut.assignment, direct.assignment);
}

TEST(Adapters, LocalSearchMatchesFreeFunctionWithHistoricalSalt) {
  const Graph g = test_graph();
  const auto rep =
      SolverRegistry::global().make("local-search:restarts=3")->solve({&g, 5});
  util::Rng rng(5ULL ^ 0x10ca15ULL);  // the pre-registry driver's salt
  const auto direct = maxcut::one_exchange_restarts(g, rng, 3);
  EXPECT_EQ(rep.cut.value, direct.value);
  EXPECT_EQ(rep.cut.assignment, direct.assignment);
}

TEST(Adapters, GreedyAndRandomMatchFreeFunctions) {
  const Graph g = test_graph();
  const auto greedy = SolverRegistry::global().make("greedy")->solve({&g, 9});
  EXPECT_EQ(greedy.cut.assignment, maxcut::greedy_cut(g).assignment);
  const auto random =
      SolverRegistry::global().make("random:p=0.3")->solve({&g, 9});
  util::Rng rng(9);
  EXPECT_EQ(random.cut.assignment,
            maxcut::randomized_partitioning(g, rng, 0.3).assignment);
}

TEST(Adapters, BestKeepsBetterCutAndTiesGoToFirstChild) {
  const Graph g = test_graph();
  const auto& registry = SolverRegistry::global();
  const auto q = registry.make("qaoa:p=2,iters=30")->solve({&g, 5});
  const auto c = registry.make("gw")->solve({&g, 5});
  const auto b = registry.make("best:qaoa:p=2,iters=30|gw")->solve({&g, 5});
  const auto& expected = q.cut.value >= c.cut.value ? q : c;
  EXPECT_EQ(b.cut.value, expected.cut.value);
  EXPECT_EQ(b.cut.assignment, expected.cut.assignment);
}

// ------------------------------------------------- report semantics ----

TEST(Reports, SolveCountsCoverBothKindsOfABestOf) {
  const Graph g = test_graph();
  const auto& registry = SolverRegistry::global();
  const auto leaf_q = registry.make("qaoa:p=1,iters=10")->solve({&g, 1});
  EXPECT_EQ(leaf_q.quantum_solves, 1);
  EXPECT_EQ(leaf_q.classical_solves, 0);
  const auto leaf_c = registry.make("greedy")->solve({&g, 1});
  EXPECT_EQ(leaf_c.quantum_solves, 0);
  EXPECT_EQ(leaf_c.classical_solves, 1);
  // The old enum switch tallied a best-of as ONE solve; the combinator
  // reports every child.
  const auto best =
      registry.make("best:qaoa:p=1,iters=10|gw:rounds=5|greedy")
          ->solve({&g, 1});
  EXPECT_EQ(best.quantum_solves, 1);
  EXPECT_EQ(best.classical_solves, 2);
}

TEST(Reports, TrivialGraphsShortCircuitButStillCount) {
  const Graph empty(5);  // 5 nodes, no edges
  const auto& registry = SolverRegistry::global();
  for (const char* spec : {"qaoa", "gw", "best"}) {
    const auto rep = registry.make(spec)->solve({&empty, 3});
    EXPECT_EQ(rep.cut.value, 0.0) << spec;
    EXPECT_EQ(rep.cut.assignment, maxcut::Assignment(5, 0)) << spec;
    EXPECT_EQ(rep.quantum_solves + rep.classical_solves,
              std::string(spec) == "best" ? 2 : 1)
        << spec;
    EXPECT_EQ(rep.solver, spec);
  }
}

TEST(Reports, NullGraphThrows) {
  const auto s = SolverRegistry::global().make("greedy");
  EXPECT_THROW((void)s->solve(SolveRequest{}), std::invalid_argument);
}

TEST(Reports, MetricFallback) {
  SolveReport report;
  report.metrics = {{"a", 2.5}};
  EXPECT_EQ(report.metric("a"), 2.5);
  EXPECT_EQ(report.metric("missing", -1.0), -1.0);
}

// ------------------------------------------ QAOA^2 registry dispatch ----

/// Two ER blobs of different size plus two isolated nodes (shared fixture,
/// tests/test_graphs.hpp — must stay bit-identical for the parity pins).
Graph disconnected_test_graph() { return testing::disconnected_fixture(); }

qaoa2::Qaoa2Options parity_options() {
  qaoa2::Qaoa2Options opts;
  opts.max_qubits = 6;
  opts.merge_solver_spec = "gw";
  opts.seed = 33;
  return opts;
}

struct ParityPin {
  const char* solver;
  double conn_value;
  std::uint64_t conn_bits;
  int conn_quantum, conn_classical;
  double disc_value;
  std::uint64_t disc_bits;
  int disc_quantum, disc_classical;
};

// Cut values/assignments captured from the PRE-registry Qaoa2Driver (commit
// 5598203, enum-switch dispatch) on erdos_renyi(26, 0.2, rng(29)) and the
// disconnected fixture, max_qubits 6, qaoa p=2/25 iters, gw merge, seed 33.
// The QAOA-family rows carry that configuration in their spec strings.
// The registry-dispatch driver must reproduce them bit-for-bit (they held
// for the streaming and the former level-barrier pipeline alike; the
// qaoa2_golden_qq{1,8} and qaoa2_parity_qq{1,8} ctest entries re-run them at
// pinned global pool widths). Solve counts are the POST-fix accounting: the old driver
// tallied a best-of fitting solve as one classical solve (the disconnected
// best row read quantum=7); the combinator now reports both children, which
// is the only intended accounting change (disc best quantum 7 -> 9 for the
// two isolated-node fitting solves).
const ParityPin kParityPins[] = {
    {"qaoa:p=2,iters=25", 56.0, 0x0313c6e6ULL, 6, 1, 47.0, 0x0ec4079eULL, 9,
     2},
    {"gw", 54.0, 0x00b5bd08ULL, 0, 7, 45.0, 0x091b079eULL, 0, 11},
    {"best:qaoa:p=2,iters=25|gw", 56.0, 0x0313c6e6ULL, 6, 7, 47.0,
     0x0ec4079eULL, 9, 11},
    {"exact", 56.0, 0x031ac2e6ULL, 0, 7, 47.0, 0x0ec4079eULL, 0, 11},
    {"anneal", 59.0, 0x00e43919ULL, 0, 7, 44.0, 0x0173079eULL, 0, 11},
    {"local-search", 56.0, 0x039b86e4ULL, 0, 7, 48.0, 0x013b0796ULL, 0, 11},
    {"rqaoa:p=2,iters=25", 56.0, 0x031ac2e6ULL, 6, 1, 47.0, 0x0ec4079eULL, 9,
     2},
};

TEST(Qaoa2Parity, RegistryDispatchPinsToPreRefactorCuts) {
  util::Rng rng(29);
  const Graph connected = graph::erdos_renyi(26, 0.2, rng);
  const Graph disconnected = disconnected_test_graph();
  for (const ParityPin& pin : kParityPins) {
    qaoa2::Qaoa2Options opts = parity_options();
    opts.sub_solver_spec = pin.solver;

    const qaoa2::Qaoa2Result conn = qaoa2::solve_qaoa2(connected, opts);
    EXPECT_DOUBLE_EQ(conn.cut.value, pin.conn_value) << pin.solver;
    EXPECT_EQ(maxcut::bits_from_assignment(conn.cut.assignment),
              pin.conn_bits)
        << pin.solver;
    EXPECT_EQ(conn.quantum_solves, pin.conn_quantum) << pin.solver;
    EXPECT_EQ(conn.classical_solves, pin.conn_classical) << pin.solver;

    const qaoa2::Qaoa2Result disc = qaoa2::solve_qaoa2(disconnected, opts);
    EXPECT_DOUBLE_EQ(disc.cut.value, pin.disc_value) << pin.solver;
    EXPECT_EQ(maxcut::bits_from_assignment(disc.cut.assignment),
              pin.disc_bits)
        << pin.solver;
    EXPECT_EQ(disc.quantum_solves, pin.disc_quantum) << pin.solver;
    EXPECT_EQ(disc.classical_solves, pin.disc_classical) << pin.solver;
  }
}

TEST(Qaoa2Parity, DriverRejectsMalformedAndCombinatorMergeSpecs) {
  qaoa2::Qaoa2Options opts;
  opts.sub_solver_spec = "nope";
  EXPECT_THROW(qaoa2::Qaoa2Driver{opts}, std::invalid_argument);
  opts = qaoa2::Qaoa2Options{};
  opts.sub_solver_spec = "qaoa:bogus=1";
  EXPECT_THROW(qaoa2::Qaoa2Driver{opts}, std::invalid_argument);
  opts = qaoa2::Qaoa2Options{};
  opts.merge_solver_spec = "best:qaoa|gw";
  EXPECT_THROW(qaoa2::Qaoa2Driver{opts}, std::invalid_argument);
}

TEST(Qaoa2Parity, SpecParametersReachTheSubSolves) {
  // A three-child best-of streams through the driver: counts must cover
  // every child of every part.
  const Graph g = test_graph(51, 18, 0.3);
  qaoa2::Qaoa2Options opts = parity_options();
  opts.sub_solver_spec = "best:greedy|local-search:restarts=2|anneal";
  opts.deeper_solver_spec = "greedy";
  opts.merge_solver_spec = "exact";
  const auto r = qaoa2::solve_qaoa2(g, opts);
  EXPECT_GT(r.cut.value, 0.0);
  EXPECT_EQ(r.quantum_solves, 0);
  EXPECT_NEAR(maxcut::cut_value(g, r.cut.assignment), r.cut.value, 1e-9);
  // Level 0 parts each ran three classical children.
  ASSERT_FALSE(r.level_stats.empty());
  const int level0_parts = r.level_stats.front().num_parts;
  EXPECT_GE(r.classical_solves, 3 * level0_parts);
}

}  // namespace
}  // namespace qq::solver
