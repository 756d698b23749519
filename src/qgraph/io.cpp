#include "qgraph/io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace qq::graph {

void write_edge_list(const Graph& g, std::ostream& os) {
  os << g.num_nodes() << ' ' << g.num_edges() << '\n';
  os.precision(17);
  for (const Edge& e : g.edges()) {
    os << e.u << ' ' << e.v << ' ' << e.w << '\n';
  }
}

Graph read_edge_list(std::istream& is) {
  std::string line;
  std::size_t line_no = 0;
  auto next_data_line = [&]() -> bool {
    while (std::getline(is, line)) {
      ++line_no;
      if (!line.empty() && line[0] != '#') return true;
    }
    return false;
  };
  auto fail = [&](const std::string& what) {
    throw std::runtime_error("read_edge_list: line " +
                             std::to_string(line_no) + ": " + what);
  };
  if (!next_data_line()) {
    throw std::runtime_error("read_edge_list: empty input");
  }
  std::istringstream header(line);
  NodeId n = 0;
  std::size_t m = 0;
  if (!(header >> n >> m)) fail("malformed header");
  if (n < 0 || n > kMaxEdgeListNodes) {
    fail("node count " + std::to_string(n) + " is outside [0, " +
         std::to_string(kMaxEdgeListNodes) + "]");
  }
  Graph g(n);
  for (std::size_t i = 0; i < m; ++i) {
    if (!next_data_line()) {
      throw std::runtime_error("read_edge_list: truncated edge list");
    }
    std::istringstream row(line);
    NodeId u = 0, v = 0;
    double w = 1.0;
    if (!(row >> u >> v >> w)) fail("malformed edge line");
    if (g.has_edge(u, v)) {
      fail("edge " + std::to_string(u) + " " + std::to_string(v) +
           " repeats an earlier edge");
    }
    g.add_edge(u, v, w);
  }
  return g;
}

void save_edge_list(const Graph& g, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("save_edge_list: cannot open " + path);
  write_edge_list(g, os);
}

Graph load_edge_list(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("load_edge_list: cannot open " + path);
  return read_edge_list(is);
}

}  // namespace qq::graph
