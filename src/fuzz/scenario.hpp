#pragma once
// Adversarial scenario generation for the fuzz harness (ROADMAP item 5).
//
// A scenario is one randomized stress case: a graph drawn from a family
// that deliberately includes the pathological corners (empty graphs,
// isolated nodes, zero/negative/duplicate weights, stars, expanders,
// component swarms), plus a random-but-valid solver spec drawn from the
// registry grammar — either solved directly through `solver::Solver` or
// pushed through the whole QAOA^2 pipeline. Everything is a pure function
// of a 64-bit seed, so any failing scenario is reproducible from
// (scenario_seed) alone and shrinkable by the reducer (reducer.hpp).
//
// The oracles that judge a scenario live in oracle.hpp; the campaign
// driver in fuzzer.hpp; serialization of failing cases in case_io.hpp.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "qgraph/graph.hpp"
#include "util/rng.hpp"

namespace qq::fuzz {

/// How a scenario exercises the stack: a direct `Solver::solve` call, or a
/// full QAOA^2 divide-solve-merge run.
enum class ProbeKind { kSolver, kQaoa2 };

const char* probe_kind_name(ProbeKind kind) noexcept;

struct Scenario {
  ProbeKind kind = ProbeKind::kSolver;
  graph::Graph graph;
  /// Generator family that produced `graph` ("er", "star", "zero_weights",
  /// ...). Informational: coverage accounting and reproducer comments.
  std::string family;
  /// Registry spec solved against the graph (the sub-solver spec for
  /// kQaoa2 probes). Always valid by construction.
  std::string spec;
  /// kQaoa2 only: the deeper-level and merge-role specs (merge is never a
  /// combinator, matching the driver's contract).
  std::string deeper_spec;
  std::string merge_spec;
  /// kQaoa2 only: simulated device qubit budget.
  int max_qubits = 6;
  /// Seed handed to the solve itself (SolveRequest::seed / Qaoa2Options::seed).
  std::uint64_t solve_seed = 0;
  /// The generator seed this scenario was derived from (0 when hand-built).
  std::uint64_t scenario_seed = 0;
};

/// Graph family labels `random_graph` draws from, in drawing order.
std::vector<std::string_view> graph_families();

/// Copy every edge of `blob` into `g` shifted by `offset` node ids — the
/// disjoint-union step shared by the many-components families here and the
/// disconnected test fixtures (tests/test_graphs.hpp).
void add_disjoint_blob(graph::Graph& g, const graph::Graph& blob,
                       graph::NodeId offset);

/// Build one graph of the named family. `max_nodes` caps the node count
/// (families with structural minimums, e.g. grids, may use fewer but never
/// more, except the deliberately large "component_swarm" family, which
/// ignores the cap and is only drawn for cheap classical pipeline probes).
/// Throws std::invalid_argument for an unknown family name.
graph::Graph make_family_graph(std::string_view family, util::Rng& rng,
                               graph::NodeId max_nodes);

/// Draw a family, then a graph from it. Sets `family_out`.
graph::Graph random_graph(util::Rng& rng, graph::NodeId max_nodes,
                          std::string& family_out);

/// Random valid leaf spec ("anneal:sweeps=23", "qaoa:p=1,iters=7", ...).
/// `qubit_cap` is the largest graph the spec will be asked to solve —
/// simulator-backed and exponential backends are only drawn when it is
/// small enough for them to stay cheap.
std::string random_leaf_spec(util::Rng& rng, graph::NodeId qubit_cap);

/// Random valid spec: a leaf, or (when allowed) a `best:` combinator of
/// 2-3 children, occasionally nested one level deep.
std::string random_spec(util::Rng& rng, graph::NodeId qubit_cap,
                        bool allow_combinator = true);

/// A spec that is malformed by construction: `SolverRegistry::make` must
/// throw std::invalid_argument for it (the fuzzer's "must throw, never
/// crash" probe). Drawn from a curated template set plus dynamically built
/// overlong and deeply nested specs.
std::string random_malformed_spec(util::Rng& rng);

/// The full curated malformed-template list (exposed so the test suite can
/// pin that every template really throws).
std::vector<std::string> malformed_spec_templates();

/// Derive the complete scenario for one campaign seed: probe kind, graph
/// family, graph, spec(s), and solve seed. Pure function of `seed`.
Scenario make_scenario(std::uint64_t seed);

}  // namespace qq::fuzz
