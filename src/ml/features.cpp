#include "ml/features.hpp"

#include <algorithm>
#include <cmath>

#include "util/stats.hpp"

namespace qq::ml {

namespace {

/// Global clustering coefficient: 3 * triangles / open-and-closed triads.
double clustering_coefficient(const graph::Graph& g) {
  const graph::NodeId n = g.num_nodes();
  // Count closed triangles via sorted adjacency intersection (u < v < w).
  std::vector<std::vector<graph::NodeId>> adj(static_cast<std::size_t>(n));
  for (graph::NodeId u = 0; u < n; ++u) {
    for (const auto& [v, w] : g.neighbors(u)) {
      (void)w;
      if (v > u) adj[static_cast<std::size_t>(u)].push_back(v);
    }
    std::sort(adj[static_cast<std::size_t>(u)].begin(),
              adj[static_cast<std::size_t>(u)].end());
  }
  std::size_t triangles = 0;
  for (graph::NodeId u = 0; u < n; ++u) {
    const auto& up = adj[static_cast<std::size_t>(u)];
    for (const graph::NodeId v : up) {
      const auto& vp = adj[static_cast<std::size_t>(v)];
      // |up ∩ vp| counts w > v > u closing a triangle.
      std::size_t i = 0, j = 0;
      while (i < up.size() && j < vp.size()) {
        if (up[i] == vp[j]) {
          ++triangles;
          ++i;
          ++j;
        } else if (up[i] < vp[j]) {
          ++i;
        } else {
          ++j;
        }
      }
    }
  }
  std::size_t triads = 0;  // paths of length 2 (ordered centre)
  for (graph::NodeId u = 0; u < n; ++u) {
    const std::size_t d = static_cast<std::size_t>(g.degree(u));
    triads += d * (d - 1) / 2;
  }
  return triads > 0
             ? 3.0 * static_cast<double>(triangles) / static_cast<double>(triads)
             : 0.0;
}

}  // namespace

std::array<double, kNumFeatures> graph_features(const graph::Graph& g) {
  const graph::NodeId n = g.num_nodes();
  const auto m = static_cast<double>(g.num_edges());

  util::RunningStats degree_stats;
  for (graph::NodeId u = 0; u < n; ++u) {
    degree_stats.add(static_cast<double>(g.degree(u)));
  }
  util::RunningStats weight_stats;
  for (const graph::Edge& e : g.edges()) weight_stats.add(e.w);

  std::array<double, kNumFeatures> f{};
  f[0] = static_cast<double>(n);
  f[1] = m;
  f[2] = n > 1 ? 2.0 * m / (static_cast<double>(n) * (n - 1)) : 0.0;
  f[3] = degree_stats.mean();
  f[4] = degree_stats.stddev();
  f[5] = degree_stats.count() ? degree_stats.max() : 0.0;
  f[6] = weight_stats.mean();
  f[7] = weight_stats.stddev();
  f[8] = clustering_coefficient(g);
  f[9] = g.is_weighted() ? 1.0 : 0.0;
  return f;
}

}  // namespace qq::ml
