#pragma once
// Undirected weighted graph — the classical substrate of the whole library.
//
// Replaces the paper's use of NetworkX. Nodes are dense integer ids
// 0..n-1; parallel edges are merged by summing weights (the behaviour the
// QAOA^2 merge step relies on); self-loops are rejected because they can
// never contribute to a cut.

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace qq::util {
class ThreadPool;
}  // namespace qq::util

namespace qq::graph {

using NodeId = std::int32_t;

struct Edge {
  NodeId u;
  NodeId v;
  double w;
};

struct Subgraph;  // defined after Graph (holds a Graph by value)

class Graph {
 public:
  explicit Graph(NodeId num_nodes = 0);

  NodeId num_nodes() const noexcept { return num_nodes_; }
  std::size_t num_edges() const noexcept { return edges_.size(); }

  /// Accumulates weight if the edge already exists. Throws on self-loops or
  /// out-of-range endpoints.
  void add_edge(NodeId u, NodeId v, double w = 1.0);

  bool has_edge(NodeId u, NodeId v) const;
  /// 0.0 when the edge is absent.
  double edge_weight(NodeId u, NodeId v) const;

  const std::vector<Edge>& edges() const noexcept { return edges_; }
  const std::vector<std::pair<NodeId, double>>& neighbors(NodeId u) const;

  NodeId degree(NodeId u) const;
  double weighted_degree(NodeId u) const;
  /// Sum of all edge weights.
  double total_weight() const noexcept { return total_weight_; }
  /// True if any edge weight differs from 1 (paper distinguishes weighted
  /// vs unweighted instances).
  bool is_weighted() const;

  /// Induced subgraph over `nodes` (local ids follow the order given).
  Subgraph induced(const std::vector<NodeId>& nodes) const;

 private:
  std::uint64_t edge_key(NodeId u, NodeId v) const noexcept;

  NodeId num_nodes_ = 0;
  std::vector<Edge> edges_;
  std::vector<std::vector<std::pair<NodeId, double>>> adj_;
  std::unordered_map<std::uint64_t, std::size_t> edge_index_;
  double total_weight_ = 0.0;
};

/// Result of Graph::induced.
struct Subgraph {
  Graph graph;
  std::vector<NodeId> to_global;  ///< local id -> original node id
};

/// Connected components as node-id lists, each sorted ascending; components
/// ordered by smallest contained node.
std::vector<std::vector<NodeId>> connected_components(const Graph& g);

bool is_connected(const Graph& g);

/// Extract the induced subgraph of every node set in `parts`, fanning the
/// extractions out across `pool` (nullptr selects the global pool). Output
/// order matches `parts`; each extraction is identical to
/// g.induced(parts[i]), so results are independent of the pool width.
std::vector<Subgraph> induced_batch(const Graph& g,
                                    const std::vector<std::vector<NodeId>>& parts,
                                    util::ThreadPool* pool = nullptr);

}  // namespace qq::graph
