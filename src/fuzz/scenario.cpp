#include "fuzz/scenario.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "qgraph/generators.hpp"

namespace qq::fuzz {

namespace {

using graph::Graph;
using graph::NodeId;
using util::Rng;

NodeId pick_n(Rng& rng, NodeId lo, NodeId hi) {
  if (hi < lo) hi = lo;
  return static_cast<NodeId>(util::uniform_int(rng, lo, hi));
}

/// Erdős–Rényi shape with every weight produced by `weight(rng)`; used by
/// the signed/zero/extreme weight families (the library generator only
/// draws unit or U[0,1) weights).
template <typename WeightFn>
Graph er_shape(Rng& rng, NodeId n, double p, WeightFn weight) {
  Graph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (util::bernoulli(rng, p)) g.add_edge(u, v, weight(rng));
    }
  }
  return g;
}

Graph make_many_components(Rng& rng, NodeId max_nodes) {
  const NodeId budget = std::max<NodeId>(max_nodes, 4);
  Graph g(budget);
  NodeId next = 0;
  while (next < budget) {
    const NodeId blob_n = std::min<NodeId>(pick_n(rng, 1, 5), budget - next);
    if (blob_n >= 2) {
      add_disjoint_blob(g, graph::erdos_renyi(blob_n, 0.8, rng), next);
    }
    // blob_n == 1 leaves an isolated node — deliberate.
    next = static_cast<NodeId>(next + blob_n);
  }
  return g;
}

/// Hundreds of tiny components — the "thousands-of-components" stressor
/// scaled to a per-scenario time budget. Only drawn for cheap classical
/// QAOA^2 probes (see make_scenario).
Graph make_component_swarm(Rng& rng) {
  const NodeId components = pick_n(rng, 120, 320);
  Graph g(static_cast<NodeId>(components * 3));
  for (NodeId c = 0; c < components; ++c) {
    const NodeId base = static_cast<NodeId>(3 * c);
    switch (util::uniform_int(rng, 0, 2)) {
      case 0:  // triangle
        g.add_edge(base, base + 1, 1.0);
        g.add_edge(base + 1, base + 2, 1.0);
        g.add_edge(base, base + 2, 1.0);
        break;
      case 1:  // path of 3
        g.add_edge(base, base + 1, util::uniform(rng, -1.0, 1.0));
        g.add_edge(base + 1, base + 2, util::uniform(rng, -1.0, 1.0));
        break;
      default:  // one edge + one isolated node
        g.add_edge(base, base + 1, 1.0);
        break;
    }
  }
  return g;
}

Graph make_isolated_flanked(Rng& rng, NodeId max_nodes) {
  // An ER blob surrounded by isolated nodes on both id ends, so solvers
  // see leading AND trailing zero-degree vertices.
  const NodeId blob = pick_n(rng, 2, std::max<NodeId>(2, max_nodes - 2));
  const NodeId lead = pick_n(rng, 0, 2);
  const NodeId tail = pick_n(rng, 0, 2);
  Graph g(static_cast<NodeId>(blob + lead + tail));
  add_disjoint_blob(g, graph::erdos_renyi(blob, 0.6, rng), lead);
  return g;
}

Graph make_duplicate_edges(Rng& rng, NodeId max_nodes) {
  // Re-adds existing edges (Graph accumulates weights); some re-additions
  // cancel the original weight to exactly 0.
  const NodeId n = pick_n(rng, 3, max_nodes);
  Graph g = graph::erdos_renyi(n, 0.4, rng);
  const std::vector<graph::Edge> snapshot = g.edges();
  for (const graph::Edge& e : snapshot) {
    const int roll = util::uniform_int(rng, 0, 3);
    if (roll == 0) {
      g.add_edge(e.u, e.v, e.w);  // doubled weight
    } else if (roll == 1) {
      g.add_edge(e.u, e.v, -e.w);  // cancels to a zero-weight edge
    }
  }
  return g;
}

struct Family {
  std::string_view name;
  Graph (*make)(Rng&, NodeId);
};

constexpr double kExtremeWeights[] = {1e-12, -1e-12, 1e9, -1e9, 0.0, 1.0};

const Family kFamilies[] = {
    {"empty", [](Rng&, NodeId) { return Graph(0); }},
    {"single", [](Rng&, NodeId) { return Graph(1); }},
    {"isolated",
     [](Rng& rng, NodeId max_nodes) {
       return Graph(pick_n(rng, 2, max_nodes));
     }},
    {"single_edge",
     [](Rng& rng, NodeId) {
       Graph g(pick_n(rng, 2, 4));
       constexpr double kWeights[] = {1.0, 2.5, -1.0, 0.0, 1e9, 1e-9};
       g.add_edge(0, 1, kWeights[util::uniform_int(rng, 0, 5)]);
       return g;
     }},
    {"er",
     [](Rng& rng, NodeId max_nodes) {
       return graph::erdos_renyi(pick_n(rng, 2, max_nodes),
                                 util::uniform(rng, 0.05, 0.7), rng);
     }},
    {"er_weighted",
     [](Rng& rng, NodeId max_nodes) {
       return graph::erdos_renyi(pick_n(rng, 2, max_nodes),
                                 util::uniform(rng, 0.1, 0.6), rng,
                                 graph::WeightMode::kUniform01);
     }},
    {"er_dense",
     [](Rng& rng, NodeId max_nodes) {
       return graph::erdos_renyi(pick_n(rng, 3, std::min<NodeId>(10, max_nodes)),
                                 0.95, rng);
     }},
    {"power_law",
     [](Rng& rng, NodeId max_nodes) {
       const NodeId n = pick_n(rng, 3, max_nodes);
       const NodeId m = pick_n(rng, 1, std::min<NodeId>(3, n - 1));
       return graph::barabasi_albert(n, m, rng);
     }},
    {"star",
     [](Rng& rng, NodeId max_nodes) {
       return graph::star_graph(pick_n(rng, 2, max_nodes));
     }},
    {"expander",
     [](Rng& rng, NodeId max_nodes) {
       // 3-regular random graph; the pairing model needs n*d even.
       NodeId n = pick_n(rng, 4, std::max<NodeId>(4, max_nodes));
       if (n % 2 != 0) --n;
       return graph::random_regular(n, 3, rng);
     }},
    {"grid",
     [](Rng& rng, NodeId max_nodes) {
       const NodeId rows = pick_n(rng, 2, 4);
       const NodeId cols =
           pick_n(rng, 2, std::max<NodeId>(2, max_nodes / rows));
       return graph::grid_2d(rows, cols);
     }},
    {"ring",
     [](Rng& rng, NodeId max_nodes) {
       return graph::cycle_graph(pick_n(rng, 3, max_nodes));
     }},
    {"path",
     [](Rng& rng, NodeId max_nodes) {
       return graph::path_graph(pick_n(rng, 2, max_nodes));
     }},
    {"complete",
     [](Rng& rng, NodeId max_nodes) {
       return graph::complete_graph(
           pick_n(rng, 3, std::min<NodeId>(10, max_nodes)));
     }},
    {"planted",
     [](Rng& rng, NodeId max_nodes) {
       const NodeId blocks = pick_n(rng, 2, 3);
       const NodeId block_size =
           pick_n(rng, 2, std::max<NodeId>(2, max_nodes / blocks));
       return graph::planted_partition(blocks, block_size, 0.85, 0.08, rng);
     }},
    {"many_components",
     [](Rng& rng, NodeId max_nodes) {
       return make_many_components(rng, max_nodes);
     }},
    {"zero_weights",
     [](Rng& rng, NodeId max_nodes) {
       return er_shape(rng, pick_n(rng, 2, max_nodes), 0.4,
                       [](Rng&) { return 0.0; });
     }},
    {"negative",
     [](Rng& rng, NodeId max_nodes) {
       return er_shape(rng, pick_n(rng, 2, max_nodes), 0.4,
                       [](Rng& r) { return -util::uniform(r, 0.1, 1.0); });
     }},
    {"mixed_sign",
     [](Rng& rng, NodeId max_nodes) {
       return er_shape(rng, pick_n(rng, 2, max_nodes), 0.4,
                       [](Rng& r) { return util::uniform(r, -1.0, 1.0); });
     }},
    {"duplicate_edges",
     [](Rng& rng, NodeId max_nodes) {
       return make_duplicate_edges(rng, max_nodes);
     }},
    {"extreme_weights",
     [](Rng& rng, NodeId max_nodes) {
       return er_shape(rng, pick_n(rng, 2, max_nodes), 0.4, [](Rng& r) {
         return kExtremeWeights[util::uniform_int(r, 0, 5)];
       });
     }},
    {"isolated_flanked",
     [](Rng& rng, NodeId max_nodes) {
       return make_isolated_flanked(rng, max_nodes);
     }},
};

constexpr std::size_t kNumFamilies = std::size(kFamilies);

}  // namespace

const char* probe_kind_name(ProbeKind kind) noexcept {
  return kind == ProbeKind::kSolver ? "solver" : "qaoa2";
}

std::vector<std::string_view> graph_families() {
  std::vector<std::string_view> out;
  out.reserve(kNumFamilies + 1);
  for (const Family& f : kFamilies) out.push_back(f.name);
  out.push_back("component_swarm");
  return out;
}

void add_disjoint_blob(graph::Graph& g, const graph::Graph& blob,
                       graph::NodeId offset) {
  for (const graph::Edge& e : blob.edges()) {
    g.add_edge(static_cast<NodeId>(e.u + offset),
               static_cast<NodeId>(e.v + offset), e.w);
  }
}

graph::Graph make_family_graph(std::string_view family, util::Rng& rng,
                               graph::NodeId max_nodes) {
  if (family == "component_swarm") return make_component_swarm(rng);
  for (const Family& f : kFamilies) {
    if (f.name == family) return f.make(rng, std::max<NodeId>(max_nodes, 2));
  }
  throw std::invalid_argument("make_family_graph: unknown family '" +
                              std::string(family) + "'");
}

graph::Graph random_graph(util::Rng& rng, graph::NodeId max_nodes,
                          std::string& family_out) {
  const Family& f =
      kFamilies[util::uniform_u64(rng, kNumFamilies)];
  family_out = std::string(f.name);
  return f.make(rng, std::max<NodeId>(max_nodes, 2));
}

std::string random_leaf_spec(util::Rng& rng, graph::NodeId qubit_cap) {
  // Cheap classical backends are always available; simulator-backed and
  // exponential ones only below their cost cliffs.
  std::vector<int> choices = {0, 1, 2, 3, 4};  // greedy..gw
  if (qubit_cap <= 16) choices.push_back(5);   // exact
  if (qubit_cap <= 14) choices.push_back(6);   // qaoa
  if (qubit_cap <= 10) choices.push_back(7);   // rqaoa
  switch (choices[util::uniform_u64(rng, choices.size())]) {
    case 0:
      return "greedy";
    case 1:
      return util::bernoulli(rng, 0.5)
                 ? std::string("random")
                 : "random:p=0." + std::to_string(util::uniform_int(rng, 1, 9));
    case 2:
      return "local-search:restarts=" +
             std::to_string(util::uniform_int(rng, 1, 4));
    case 3: {
      std::string spec =
          "anneal:sweeps=" + std::to_string(util::uniform_int(rng, 5, 50));
      if (util::bernoulli(rng, 0.3)) {
        spec += ",t0=" + std::to_string(util::uniform_int(rng, 1, 4)) +
                ".0,t1=0.05";
      }
      return spec;
    }
    case 4: {
      std::string spec =
          "gw:rounds=" + std::to_string(util::uniform_int(rng, 2, 12));
      if (util::bernoulli(rng, 0.3)) {
        spec += ",sweeps=" + std::to_string(util::uniform_int(rng, 20, 60));
      }
      return spec;
    }
    case 5:
      return "exact";
    case 6: {
      std::string spec = "qaoa:p=" + std::to_string(util::uniform_int(rng, 1, 2)) +
                         ",iters=" + std::to_string(util::uniform_int(rng, 4, 12));
      if (util::bernoulli(rng, 0.4)) {
        spec += ",shots=" + std::to_string(util::uniform_int(rng, 32, 128));
      }
      if (util::bernoulli(rng, 0.2)) {
        spec += ",topk=" + std::to_string(util::uniform_int(rng, 1, 4));
      }
      return spec;
    }
    default:
      return "rqaoa:p=1,iters=" + std::to_string(util::uniform_int(rng, 4, 8)) +
             ",cutoff=" + std::to_string(util::uniform_int(rng, 3, 6));
  }
}

std::string random_spec(util::Rng& rng, graph::NodeId qubit_cap,
                        bool allow_combinator) {
  if (!allow_combinator || !util::bernoulli(rng, 0.25)) {
    return random_leaf_spec(rng, qubit_cap);
  }
  const int children = util::uniform_int(rng, 2, 3);
  std::string spec = "best:";
  for (int c = 0; c < children; ++c) {
    if (c > 0) spec += '|';
    // Nest one combinator level deep occasionally; the registry's depth
    // guard is probed separately with malformed specs.
    if (c == 0 && util::bernoulli(rng, 0.15)) {
      spec += "best:" + random_leaf_spec(rng, qubit_cap) + '|' +
              random_leaf_spec(rng, qubit_cap);
    } else {
      spec += random_leaf_spec(rng, qubit_cap);
    }
  }
  return spec;
}

std::vector<std::string> malformed_spec_templates() {
  return {
      "",
      "   ",
      "\t",
      ":",
      ":p=1",
      "|",
      "=",
      ",",
      "nope",
      "QAOA",
      "Best:qaoa|gw",
      "qaoa gw",
      "qaoa:p",
      "qaoa:p=",
      "qaoa:=1",
      "qaoa:p=x",
      "qaoa:p=1.5",
      "qaoa:zzz=1",
      "qaoa:p=1,p=2",
      "qaoa:,",
      "qaoa:p=1,,iters=2",
      "qaoa:p=1;iters=2",
      "qaoa:p==1",
      "qaoa:p=99999999999999999999",
      "qaoa:shots=4294967296",
      "greedy:x=1",
      "greedy:p=1",
      "exact:p=1",
      "random:p=zzz",
      "gw:rounds=1e",
      "gw:rounds=1.5x",
      "gw:tol=",
      "anneal:sweeps=--3",
      "local-search:restarts=ten",
      "best:|",
      "best:qaoa|",
      "best:|gw",
      "best:qaoa||gw",
      "best:nope",
      "best:qaoa|nope",
      "best:qaoa|gw|",
      "best:qaoa|gw:bogus=1",
      "best:greedy:p=1|gw",
      // Well-formed numbers outside the range their backend accepts.
      "qaoa:p=0",
      "qaoa:restarts=0",
      "qaoa:topk=0",
      "qaoa:iters=-5",
      "qaoa:shots=-1",
      "qaoa:rhobeg=nan",
      "qaoa:rhobeg=-1",
      "qaoa:rhobeg=inf",
      "rqaoa:p=0",
      "rqaoa:cutoff=-1",
      "gw:rounds=0",
      "gw:tol=nan",
      "gw:rank=-4",
      "gw:sweeps=-1",
      "anneal:t0=0",
      "anneal:t1=3",
      "anneal:sweeps=-1",
      "local-search:restarts=0",
      "random:p=2",
      "random:p=nan",
  };
}

std::string random_malformed_spec(util::Rng& rng) {
  const std::vector<std::string> templates = malformed_spec_templates();
  // Two dynamic classes beyond the templates: overlong specs (length
  // guard) and deeply nested combinators (depth guard).
  const std::uint64_t roll = util::uniform_u64(rng, templates.size() + 2);
  if (roll == templates.size()) {
    return std::string(
        static_cast<std::size_t>(util::uniform_int(rng, 5000, 9000)), 'a');
  }
  if (roll == templates.size() + 1) {
    std::string spec;
    const int depth = util::uniform_int(rng, 24, 200);
    for (int i = 0; i < depth; ++i) spec += "best:";
    spec += "greedy";
    return spec;
  }
  return templates[static_cast<std::size_t>(roll)];
}

Scenario make_scenario(std::uint64_t seed) {
  // Decorrelate sequential campaign seeds before drawing.
  util::SplitMix64 mix(seed ^ 0xf022a11a5ce4a71fULL);
  util::Rng rng(mix.next());

  Scenario s;
  s.scenario_seed = seed;
  s.solve_seed = util::uniform_u64(rng, 1 << 20);
  s.kind = util::bernoulli(rng, 0.6) ? ProbeKind::kSolver : ProbeKind::kQaoa2;

  if (s.kind == ProbeKind::kSolver) {
    // Direct solver probes stay at n <= 16 so the exact oracle bounds every
    // heuristic and simulator backends stay cheap.
    s.graph = random_graph(rng, 16, s.family);
    s.spec = random_spec(rng, s.graph.num_nodes());
    return s;
  }

  s.max_qubits = util::uniform_int(rng, 2, 8);
  if (util::bernoulli(rng, 0.08)) {
    // Component swarm: hundreds of tiny components through the streaming
    // pipeline, restricted to cheap classical specs.
    s.family = "component_swarm";
    s.graph = make_component_swarm(rng);
    s.spec = "greedy";
    s.deeper_spec = "local-search:restarts=1";
    s.merge_spec = "greedy";
    return s;
  }
  s.graph = random_graph(rng, 28, s.family);
  // Roles solve graphs of at most max_qubits nodes (sub parts and coarse
  // graphs all fit the device), so the role spec cost is capped by it.
  s.spec = random_spec(rng, static_cast<graph::NodeId>(s.max_qubits));
  s.deeper_spec =
      random_spec(rng, static_cast<graph::NodeId>(s.max_qubits));
  s.merge_spec = random_leaf_spec(
      rng, static_cast<graph::NodeId>(s.max_qubits));  // never a combinator
  return s;
}

}  // namespace qq::fuzz
