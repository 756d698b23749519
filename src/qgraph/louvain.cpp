#include "qgraph/louvain.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "util/rng.hpp"

namespace qq::graph {

namespace {

/// Minimum modularity gain to accept a local move.
constexpr double kMinGain = 1e-9;
/// Safety cap on local-moving passes per level.
constexpr int kMaxPasses = 64;

// The aggregated graphs of Louvain carry self-loops (intra-community
// weight), which the Graph type does not represent; they are tracked in a
// side vector. A self-loop of weight w contributes 2w to its node's degree
// and w to the total weight m under the standard modularity convention.

/// One level of local moving; returns the community of each node, or an
/// empty vector when no node ever moved (fixed point).
std::vector<int> local_moving(const Graph& g,
                              const std::vector<double>& self_weight,
                              util::Rng& rng) {
  const NodeId n = g.num_nodes();
  double total_weight = g.total_weight();
  for (const double w : self_weight) total_weight += w;
  const double m2 = 2.0 * total_weight;
  if (m2 <= 0.0) return {};

  std::vector<int> community(static_cast<std::size_t>(n));
  std::iota(community.begin(), community.end(), 0);
  std::vector<double> k(static_cast<std::size_t>(n));
  std::vector<double> sigma_tot(static_cast<std::size_t>(n));
  for (NodeId u = 0; u < n; ++u) {
    const auto su = static_cast<std::size_t>(u);
    k[su] = g.weighted_degree(u) + 2.0 * self_weight[su];
    sigma_tot[su] = k[su];
  }

  std::vector<NodeId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);

  bool any_move_ever = false;
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    // Shuffle the visit order (seeded) to avoid pathological sweeps.
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[util::uniform_u64(rng, i)]);
    }
    bool moved = false;
    std::unordered_map<int, double> links;  // community -> edge weight to u
    for (const NodeId u : order) {
      const auto su = static_cast<std::size_t>(u);
      const int old_comm = community[su];
      links.clear();
      for (const auto& [v, w] : g.neighbors(u)) {
        links[community[static_cast<std::size_t>(v)]] += w;
      }
      // Remove u from its community, then compare the modularity gain of
      // every candidate (scaled by m; constants independent of the target
      // community dropped): gain(c) = links(u,c) - k_u * sigma_tot(c) / 2m.
      sigma_tot[static_cast<std::size_t>(old_comm)] -= k[su];
      const double k_u = k[su];
      int best_comm = old_comm;
      double best_gain =
          (links.count(old_comm) ? links[old_comm] : 0.0) -
          k_u * sigma_tot[static_cast<std::size_t>(old_comm)] / m2;
      for (const auto& [c, w_uc] : links) {
        if (c == old_comm) continue;
        const double gain =
            w_uc - k_u * sigma_tot[static_cast<std::size_t>(c)] / m2;
        if (gain > best_gain + kMinGain) {
          best_gain = gain;
          best_comm = c;
        }
      }
      sigma_tot[static_cast<std::size_t>(best_comm)] += k_u;
      if (best_comm != old_comm) {
        community[su] = best_comm;
        moved = true;
        any_move_ever = true;
      }
    }
    if (!moved) break;
  }
  if (!any_move_ever) return {};
  return community;
}

/// Aggregate communities into super-nodes; intra-community weight (plus
/// member self-loops) becomes the super-node's self-loop weight.
Graph aggregate(const Graph& g, const std::vector<double>& self_weight,
                const std::vector<int>& community,
                std::vector<int>& old_to_new,
                std::vector<double>& new_self_weight) {
  std::unordered_map<int, int> remap;
  int next = 0;
  old_to_new.assign(community.size(), 0);
  for (std::size_t u = 0; u < community.size(); ++u) {
    const auto it = remap.find(community[u]);
    if (it == remap.end()) {
      remap.emplace(community[u], next);
      old_to_new[u] = next;
      ++next;
    } else {
      old_to_new[u] = it->second;
    }
  }
  Graph coarse(next);
  new_self_weight.assign(static_cast<std::size_t>(next), 0.0);
  for (std::size_t u = 0; u < community.size(); ++u) {
    new_self_weight[static_cast<std::size_t>(old_to_new[u])] +=
        self_weight[u];
  }
  for (const Edge& e : g.edges()) {
    const int a = old_to_new[static_cast<std::size_t>(e.u)];
    const int b = old_to_new[static_cast<std::size_t>(e.v)];
    if (a == b) {
      new_self_weight[static_cast<std::size_t>(a)] += e.w;
    } else {
      coarse.add_edge(static_cast<NodeId>(a), static_cast<NodeId>(b), e.w);
    }
  }
  return coarse;
}

}  // namespace

std::vector<std::vector<NodeId>> louvain_communities(
    const Graph& g, const LouvainOptions& options) {
  const NodeId n = g.num_nodes();
  std::vector<std::vector<NodeId>> singletons;
  for (NodeId u = 0; u < n; ++u) singletons.push_back({u});
  if (n <= 1 || g.total_weight() <= 0.0) return singletons;

  util::Rng rng(options.seed ^ 0x10a1aULL);

  // membership[u] tracks the final community of original node u through
  // the aggregation levels.
  std::vector<int> membership(static_cast<std::size_t>(n));
  std::iota(membership.begin(), membership.end(), 0);

  Graph level_graph = g;
  std::vector<double> self_weight(static_cast<std::size_t>(n), 0.0);
  for (;;) {
    const std::vector<int> community =
        local_moving(level_graph, self_weight, rng);
    if (community.empty()) break;  // fixed point
    std::vector<int> old_to_new;
    std::vector<double> next_self_weight;
    Graph coarse = aggregate(level_graph, self_weight, community, old_to_new,
                             next_self_weight);
    if (coarse.num_nodes() == level_graph.num_nodes()) break;
    for (auto& m : membership) {
      m = old_to_new[static_cast<std::size_t>(
          community[static_cast<std::size_t>(m)])];
    }
    level_graph = std::move(coarse);
    self_weight = std::move(next_self_weight);
    if (level_graph.num_edges() == 0) break;
  }

  std::unordered_map<int, std::vector<NodeId>> groups;
  for (NodeId u = 0; u < n; ++u) {
    groups[membership[static_cast<std::size_t>(u)]].push_back(u);
  }
  std::vector<std::vector<NodeId>> out;
  out.reserve(groups.size());
  for (auto& [c, members] : groups) {
    (void)c;
    std::sort(members.begin(), members.end());
    out.push_back(std::move(members));
  }
  std::sort(out.begin(), out.end(), [](const auto& x, const auto& y) {
    if (x.size() != y.size()) return x.size() > y.size();
    return x.front() < y.front();
  });
  return out;
}

}  // namespace qq::graph
