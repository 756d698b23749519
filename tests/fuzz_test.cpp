// Tests for the adversarial fuzz harness (src/fuzz): scenario-generator
// determinism and validity, spec-grammar edge cases against the registry's
// length/depth guards, oracle sensitivity, reducer shrinking, case-file
// round-trips, and a small end-to-end campaign that must come back clean.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "fuzz/case_io.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/reducer.hpp"
#include "fuzz/scenario.hpp"
#include "solver/registry.hpp"
#include "test_graphs.hpp"
#include "util/rng.hpp"

namespace qq::fuzz {
namespace {

bool same_graph(const graph::Graph& a, const graph::Graph& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges()) {
    return false;
  }
  for (std::size_t i = 0; i < a.edges().size(); ++i) {
    const graph::Edge& ea = a.edges()[i];
    const graph::Edge& eb = b.edges()[i];
    if (ea.u != eb.u || ea.v != eb.v || ea.w != eb.w) return false;
  }
  return true;
}

// ----------------------------------------------------------- generators ----

TEST(Scenario, MakeScenarioIsDeterministic) {
  for (std::uint64_t seed : {0ULL, 1ULL, 77ULL, 0xdeadbeefULL}) {
    const Scenario a = make_scenario(seed);
    const Scenario b = make_scenario(seed);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.family, b.family);
    EXPECT_EQ(a.spec, b.spec);
    EXPECT_EQ(a.deeper_spec, b.deeper_spec);
    EXPECT_EQ(a.merge_spec, b.merge_spec);
    EXPECT_EQ(a.max_qubits, b.max_qubits);
    EXPECT_EQ(a.solve_seed, b.solve_seed);
    EXPECT_TRUE(same_graph(a.graph, b.graph));
  }
}

TEST(Scenario, GeneratedScenariosAreStructurallyValid) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const Scenario s = make_scenario(seed);
    EXPECT_EQ(s.scenario_seed, seed);
    EXPECT_FALSE(s.family.empty());
    EXPECT_FALSE(s.spec.empty());
    if (s.kind == ProbeKind::kSolver) {
      EXPECT_LE(s.graph.num_nodes(), 16) << "seed " << seed;
    } else {
      EXPECT_GE(s.max_qubits, 2);
      EXPECT_FALSE(s.deeper_spec.empty());
      EXPECT_FALSE(s.merge_spec.empty());
      // The driver rejects combinator merge specs; the generator must not
      // produce one.
      EXPECT_NE(s.merge_spec.rfind("best:", 0), 0u) << s.merge_spec;
    }
  }
}

TEST(Scenario, EveryFamilyBuildsAValidGraph) {
  util::Rng rng(123);
  for (const std::string_view family : graph_families()) {
    const graph::Graph g = make_family_graph(family, rng, 20);
    for (const graph::Edge& e : g.edges()) {
      EXPECT_GE(e.u, 0);
      EXPECT_LT(e.v, g.num_nodes());
      EXPECT_NE(e.u, e.v);
    }
  }
  EXPECT_THROW(make_family_graph("no_such_family", rng, 10),
               std::invalid_argument);
}

TEST(Scenario, RandomSpecsAlwaysParse) {
  util::Rng rng(7);
  const solver::SolverRegistry& registry = solver::SolverRegistry::global();
  for (int i = 0; i < 100; ++i) {
    const std::string spec = random_spec(rng, /*qubit_cap=*/12);
    EXPECT_NO_THROW(registry.make(spec)) << spec;
  }
}

TEST(Scenario, EveryMalformedTemplateThrows) {
  for (const std::string& spec : malformed_spec_templates()) {
    EXPECT_TRUE(check_malformed_spec(spec).empty())
        << "template accepted or threw the wrong type: " << spec;
  }
  // Dynamic classes (overlong, deep nesting) too.
  util::Rng rng(99);
  for (int i = 0; i < 50; ++i) {
    const std::string spec = random_malformed_spec(rng);
    EXPECT_TRUE(check_malformed_spec(spec).empty())
        << spec.substr(0, 60) << "... (" << spec.size() << " chars)";
  }
}

// ------------------------------------------------ spec grammar hardening ----

TEST(SpecGuards, ShallowCombinatorNestingIsAccepted) {
  const solver::SolverRegistry& registry = solver::SolverRegistry::global();
  EXPECT_NO_THROW(registry.make("best:best:greedy|random|anneal"));
  EXPECT_NO_THROW(registry.make("best: greedy | random "));
  // A trailing colon with no params is equivalent to the bare name ("best:"
  // selects the default QAOA|GW pairing just like "best").
  EXPECT_NO_THROW(registry.make("best:"));
  EXPECT_NO_THROW(registry.make("anneal:"));
}

TEST(SpecGuards, DeepCombinatorNestingThrowsInsteadOfOverflowing) {
  const solver::SolverRegistry& registry = solver::SolverRegistry::global();
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "best:";
  deep += "greedy";
  EXPECT_THROW(registry.make(deep), std::invalid_argument);
  // Just past the depth limit also throws (the limit counts make() levels).
  std::string barely;
  for (int i = 0; i < solver::kMaxSpecDepth; ++i) barely += "best:";
  barely += "greedy";
  EXPECT_THROW(registry.make(barely), std::invalid_argument);
  // ... and the guard resets: a normal spec still works afterwards.
  EXPECT_NO_THROW(registry.make("best:greedy|random"));
}

TEST(SpecGuards, OverlongSpecThrows) {
  const solver::SolverRegistry& registry = solver::SolverRegistry::global();
  const std::string overlong(solver::kMaxSpecLength + 1, 'a');
  EXPECT_THROW(registry.make(overlong), std::invalid_argument);
}

TEST(SpecGuards, ClassicGrammarErrorsStillThrow) {
  const solver::SolverRegistry& registry = solver::SolverRegistry::global();
  for (const char* spec :
       {"", "   ", "qaoa:p=1,p=2", "best:|greedy", "best:greedy||gw",
        "greedy:p=1", "anneal:sweeps=", "anneal:sweeps=abc", "nope",
        "best:nope|greedy"}) {
    EXPECT_THROW(registry.make(spec), std::invalid_argument) << spec;
  }
}

// --------------------------------------------------------------- oracles ----

TEST(Oracle, CleanScenarioHasNoViolations) {
  Scenario s;
  s.kind = ProbeKind::kSolver;
  s.graph = testing::er_fixture();
  s.family = "er";
  s.spec = "greedy";
  s.solve_seed = 5;
  EXPECT_TRUE(check_scenario(s).empty());
}

TEST(Oracle, MalformedScenarioSpecIsReportedNotThrown) {
  Scenario s;
  s.kind = ProbeKind::kSolver;
  s.graph = testing::er_fixture();
  s.spec = "no_such_solver";
  const auto violations = check_scenario(s);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations.front().oracle, "spec_construct");
}

TEST(Oracle, AcceptingAMalformedSpecIsAViolation) {
  // "greedy" is valid, so the must-throw probe has to flag it.
  const auto violations = check_malformed_spec("greedy");
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations.front().oracle, "spec_guard");
}

TEST(Oracle, FormatViolationsRendersEachFinding) {
  const std::string text = format_violations(
      {{"recount", "expected 3 got 4"}, {"determinism", "run mismatch"}});
  EXPECT_NE(text.find("[recount]"), std::string::npos);
  EXPECT_NE(text.find("[determinism]"), std::string::npos);
}

// --------------------------------------------------------------- reducer ----

TEST(Reducer, ShrinksAFailingScenario) {
  // A malformed spec fails regardless of the graph, so the reducer should
  // drive the graph toward (near-)empty while keeping the violation alive.
  Scenario s;
  s.kind = ProbeKind::kSolver;
  s.graph = testing::er_fixture(11, 12, 0.5);
  s.family = "er";
  s.spec = "no_such_solver";
  const ReducedCase reduced = reduce(s);
  ASSERT_FALSE(reduced.violations.empty());
  EXPECT_TRUE(reduced.shrunk);
  EXPECT_LT(reduced.scenario.graph.num_nodes(), s.graph.num_nodes());
  EXPECT_GT(reduced.checks, 0);
}

TEST(Reducer, CleanScenarioComesBackUnchanged) {
  Scenario s;
  s.kind = ProbeKind::kSolver;
  s.graph = testing::er_fixture();
  s.spec = "greedy";
  const ReducedCase reduced = reduce(s);
  EXPECT_TRUE(reduced.violations.empty());
  EXPECT_FALSE(reduced.shrunk);
  EXPECT_TRUE(same_graph(reduced.scenario.graph, s.graph));
}

// --------------------------------------------------------------- case io ----

TEST(CaseIo, RoundTripsBitForBit) {
  Scenario s = make_scenario(4242);
  s.kind = ProbeKind::kQaoa2;
  s.deeper_spec = "gw:rounds=3";
  s.merge_spec = "greedy";
  s.max_qubits = 5;
  const std::string text = to_case_file(s, {"round-trip test"});
  const Scenario back = from_case_string(text);
  EXPECT_EQ(back.kind, s.kind);
  EXPECT_EQ(back.family, s.family);
  EXPECT_EQ(back.scenario_seed, s.scenario_seed);
  EXPECT_EQ(back.solve_seed, s.solve_seed);
  EXPECT_EQ(back.spec, s.spec);
  EXPECT_EQ(back.deeper_spec, s.deeper_spec);
  EXPECT_EQ(back.merge_spec, s.merge_spec);
  EXPECT_EQ(back.max_qubits, s.max_qubits);
  EXPECT_TRUE(same_graph(back.graph, s.graph));
}

TEST(CaseIo, MalformedCaseFilesThrow) {
  EXPECT_THROW(from_case_string(""), std::invalid_argument);  // no end
  EXPECT_THROW(from_case_string("nodes 3\nend\n"), std::invalid_argument);
  EXPECT_THROW(from_case_string("spec greedy\nend\n"), std::invalid_argument);
  EXPECT_THROW(from_case_string("edge 0 1 1\nnodes 3\nspec greedy\nend\n"),
               std::invalid_argument);
  EXPECT_THROW(
      from_case_string("nodes 3\nspec greedy\nfrobnicate 1\nend\n"),
      std::invalid_argument);
  EXPECT_THROW(
      from_case_string("nodes 3\nspec greedy\nedge 0 0 1\nend\n"),
      std::invalid_argument);  // self-loop
  EXPECT_THROW(load_case_file("/no/such/file.case"), std::invalid_argument);
}

TEST(CaseIo, ReproducerSnippetContainsTheScenario) {
  const Scenario s = from_case_string(
      "kind solver\nsolve_seed 9\nspec greedy\nnodes 2\nedge 0 1 2.5\nend\n");
  const std::string snippet = reproducer_snippet(s, {{"recount", "demo"}});
  EXPECT_NE(snippet.find("add_edge(0, 1, 2.5)"), std::string::npos);
  EXPECT_NE(snippet.find("\"greedy\""), std::string::npos);
  EXPECT_NE(snippet.find("int main()"), std::string::npos);

  // A QAOA^2 reproducer names every role by spec and sets no option that
  // no longer exists.
  const Scenario q = from_case_string(
      "kind qaoa2\nsolve_seed 4\nspec gw\ndeeper_spec greedy\n"
      "merge_spec exact\nmax_qubits 2\nnodes 3\nedge 0 1 1\nend\n");
  const std::string qsnippet = reproducer_snippet(q, {{"recount", "demo"}});
  EXPECT_NE(qsnippet.find("opts.sub_solver_spec = \"gw\""),
            std::string::npos);
  EXPECT_NE(qsnippet.find("opts.deeper_solver_spec = \"greedy\""),
            std::string::npos);
  EXPECT_NE(qsnippet.find("opts.merge_solver_spec = \"exact\""),
            std::string::npos);
  EXPECT_NE(qsnippet.find("solve_qaoa2(g, opts)"), std::string::npos);
  EXPECT_EQ(qsnippet.find("streaming"), std::string::npos);
}

// -------------------------------------------------------------- campaign ----

TEST(Campaign, SmallCampaignRunsClean) {
  FuzzOptions options;
  options.seeds = 30;
  options.wall_budget_seconds = 60.0;
  options.malformed_per_seed = 1;
  const FuzzReport report = run_fuzz(options);
  EXPECT_TRUE(report.clean()) << summarize_report(report);
  EXPECT_EQ(report.scenarios_run, 30);
  EXPECT_EQ(report.malformed_probes, 30);
  EXPECT_FALSE(report.family_counts.empty());
  EXPECT_FALSE(report.spec_counts.empty());
}

}  // namespace
}  // namespace qq::fuzz
