#pragma once
// Graph feature extraction for the method-selection layer (paper §2 cites
// Moussa et al.'s "to quantum or not to quantum" classifier; §5 lists ML
// selection as the follow-up the presented infrastructure enables).

#include <array>
#include <vector>

#include "qgraph/graph.hpp"

namespace qq::ml {

inline constexpr std::size_t kNumFeatures = 10;

/// Fixed-order numeric feature vector:
///   0: node count
///   1: edge count
///   2: density 2m / (n(n-1))
///   3: mean degree
///   4: degree standard deviation
///   5: max degree
///   6: mean edge weight
///   7: edge-weight standard deviation
///   8: global clustering coefficient (triangle based)
///   9: 1 if weighted else 0
std::array<double, kNumFeatures> graph_features(const graph::Graph& g);

}  // namespace qq::ml
