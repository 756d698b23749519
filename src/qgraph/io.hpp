#pragma once
// Plain-text edge-list persistence:
//   line 1: "<num_nodes> <num_edges>"
//   then one "<u> <v> <w>" per edge, each unordered pair at most once.
// Lines starting with '#' are comments.

#include <iosfwd>
#include <string>

#include "qgraph/graph.hpp"

namespace qq::graph {

/// The largest node count the format accepts. The header sizes the graph
/// before any edge is read, so it must not be able to request an arbitrary
/// allocation; 2^20 is far above any graph a bench builds.
inline constexpr NodeId kMaxEdgeListNodes = 1 << 20;

void write_edge_list(const Graph& g, std::ostream& os);
/// Throws std::runtime_error, naming the problem and the line, for an empty
/// or malformed header, a node count outside [0, kMaxEdgeListNodes], a
/// malformed or missing edge line, or an edge line that repeats an earlier
/// pair.
Graph read_edge_list(std::istream& is);

void save_edge_list(const Graph& g, const std::string& path);
Graph load_edge_list(const std::string& path);

}  // namespace qq::graph
