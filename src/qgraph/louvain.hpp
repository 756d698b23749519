#pragma once
// Louvain community detection — the alternative partitioner for the
// QAOA^2 divide step (paper §5 motivates "the investigation of other graph
// types and partitions"). Classic two-phase scheme: greedy local moving of
// nodes between communities until modularity stalls, then aggregation of
// communities into super-nodes, repeated until no move helps.

#include <cstdint>
#include <vector>

#include "qgraph/graph.hpp"

namespace qq::graph {

struct LouvainOptions {
  /// Node-visit order is shuffled per pass with this seed (Louvain's
  /// result is order-dependent; seeding keeps it reproducible).
  std::uint64_t seed = 0;
};

/// Communities sorted like greedy_modularity_communities: by size
/// descending, ties by smallest node; members ascending.
std::vector<std::vector<NodeId>> louvain_communities(
    const Graph& g, const LouvainOptions& options = {});

}  // namespace qq::graph
