#include "qgraph/graph.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/thread_pool.hpp"

namespace qq::graph {

Graph::Graph(NodeId num_nodes) {
  if (num_nodes < 0) {
    throw std::invalid_argument("Graph: negative node count");
  }
  num_nodes_ = num_nodes;
  adj_.resize(static_cast<std::size_t>(num_nodes));
}

std::uint64_t Graph::edge_key(NodeId u, NodeId v) const noexcept {
  const auto a = static_cast<std::uint64_t>(std::min(u, v));
  const auto b = static_cast<std::uint64_t>(std::max(u, v));
  return a * static_cast<std::uint64_t>(num_nodes_) + b;
}

void Graph::add_edge(NodeId u, NodeId v, double w) {
  if (u < 0 || v < 0 || u >= num_nodes_ || v >= num_nodes_) {
    throw std::out_of_range("Graph::add_edge: node id out of range");
  }
  if (u == v) {
    throw std::invalid_argument("Graph::add_edge: self-loops are not allowed");
  }
  if (!std::isfinite(w)) {
    throw std::invalid_argument("Graph::add_edge: weight must be finite");
  }
  const auto key = edge_key(u, v);
  const auto it = edge_index_.find(key);
  if (it != edge_index_.end()) {
    Edge& e = edges_[it->second];
    e.w += w;
    for (auto& [nbr, weight] : adj_[static_cast<std::size_t>(u)]) {
      if (nbr == v) weight = e.w;
    }
    for (auto& [nbr, weight] : adj_[static_cast<std::size_t>(v)]) {
      if (nbr == u) weight = e.w;
    }
    total_weight_ += w;
    return;
  }
  edge_index_.emplace(key, edges_.size());
  edges_.push_back(Edge{std::min(u, v), std::max(u, v), w});
  adj_[static_cast<std::size_t>(u)].emplace_back(v, w);
  adj_[static_cast<std::size_t>(v)].emplace_back(u, w);
  total_weight_ += w;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  if (u < 0 || v < 0 || u >= num_nodes_ || v >= num_nodes_ || u == v) {
    return false;
  }
  return edge_index_.count(edge_key(u, v)) > 0;
}

double Graph::edge_weight(NodeId u, NodeId v) const {
  if (u < 0 || v < 0 || u >= num_nodes_ || v >= num_nodes_ || u == v) {
    return 0.0;
  }
  const auto it = edge_index_.find(edge_key(u, v));
  return it == edge_index_.end() ? 0.0 : edges_[it->second].w;
}

const std::vector<std::pair<NodeId, double>>& Graph::neighbors(
    NodeId u) const {
  if (u < 0 || u >= num_nodes_) {
    throw std::out_of_range("Graph::neighbors: node id out of range");
  }
  return adj_[static_cast<std::size_t>(u)];
}

NodeId Graph::degree(NodeId u) const {
  return static_cast<NodeId>(neighbors(u).size());
}

double Graph::weighted_degree(NodeId u) const {
  double sum = 0.0;
  for (const auto& [nbr, w] : neighbors(u)) {
    (void)nbr;
    sum += w;
  }
  return sum;
}

bool Graph::is_weighted() const {
  return std::any_of(edges_.begin(), edges_.end(),
                     [](const Edge& e) { return e.w != 1.0; });
}

Subgraph Graph::induced(const std::vector<NodeId>& nodes) const {
  std::unordered_map<NodeId, NodeId> to_local;
  to_local.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeId g = nodes[i];
    if (g < 0 || g >= num_nodes_) {
      throw std::out_of_range("Graph::induced: node id out of range");
    }
    if (!to_local.emplace(g, static_cast<NodeId>(i)).second) {
      throw std::invalid_argument("Graph::induced: duplicate node id " +
                                  std::to_string(g));
    }
  }
  Subgraph out{Graph(static_cast<NodeId>(nodes.size())), nodes};
  for (const Edge& e : edges_) {
    const auto iu = to_local.find(e.u);
    if (iu == to_local.end()) continue;
    const auto iv = to_local.find(e.v);
    if (iv == to_local.end()) continue;
    out.graph.add_edge(iu->second, iv->second, e.w);
  }
  return out;
}

std::vector<std::vector<NodeId>> connected_components(const Graph& g) {
  const NodeId n = g.num_nodes();
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  std::vector<std::vector<NodeId>> comps;
  std::vector<NodeId> stack;
  for (NodeId s = 0; s < n; ++s) {
    if (seen[static_cast<std::size_t>(s)]) continue;
    std::vector<NodeId> comp;
    stack.push_back(s);
    seen[static_cast<std::size_t>(s)] = 1;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      comp.push_back(u);
      for (const auto& [v, w] : g.neighbors(u)) {
        (void)w;
        if (!seen[static_cast<std::size_t>(v)]) {
          seen[static_cast<std::size_t>(v)] = 1;
          stack.push_back(v);
        }
      }
    }
    std::sort(comp.begin(), comp.end());
    comps.push_back(std::move(comp));
  }
  return comps;
}

bool is_connected(const Graph& g) {
  if (g.num_nodes() <= 1) return true;
  return connected_components(g).size() == 1;
}

std::vector<Subgraph> induced_batch(
    const Graph& g, const std::vector<std::vector<NodeId>>& parts,
    util::ThreadPool* pool) {
  std::vector<Subgraph> out(parts.size());
  util::ThreadPool& p = pool != nullptr ? *pool : util::ThreadPool::global();
  // One part per chunk: extraction cost is dominated by the edge scan, and
  // parts are few (the QAOA^2 fan-out is bounded by nodes / max_qubits).
  util::parallel_for(
      p, 0, parts.size(),
      [&](std::size_t i) { out[i] = g.induced(parts[i]); });
  return out;
}

}  // namespace qq::graph
