#pragma once
// Cut representation and evaluation for the MaxCut problem (paper §3.1):
// split the nodes into two groups maximizing the weight of edges that cross
// between groups.

#include <cstdint>
#include <vector>

#include "qgraph/graph.hpp"

namespace qq::maxcut {

/// Side assignment: assignment[u] in {0, 1}.
using Assignment = std::vector<std::uint8_t>;

struct CutResult {
  Assignment assignment;
  double value = 0.0;
};

/// Σ_{(u,v) in E, assignment[u] != assignment[v]} w_uv. O(|E|).
double cut_value(const graph::Graph& g, const Assignment& assignment);

/// Change in cut value if node u flips sides. O(deg(u)).
double flip_gain(const graph::Graph& g, const Assignment& assignment,
                 graph::NodeId u);

/// Decode the n low bits of `bits` into an assignment (bit i -> node i).
Assignment assignment_from_bits(std::uint64_t bits, graph::NodeId n);

/// Inverse of assignment_from_bits; requires n <= 64.
std::uint64_t bits_from_assignment(const Assignment& assignment);

}  // namespace qq::maxcut
