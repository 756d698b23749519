#include "maxcut/cut.hpp"

#include <stdexcept>

namespace qq::maxcut {

double cut_value(const graph::Graph& g, const Assignment& assignment) {
  if (assignment.size() != static_cast<std::size_t>(g.num_nodes())) {
    throw std::invalid_argument("cut_value: assignment size mismatch");
  }
  double sum = 0.0;
  for (const graph::Edge& e : g.edges()) {
    if (assignment[static_cast<std::size_t>(e.u)] !=
        assignment[static_cast<std::size_t>(e.v)]) {
      sum += e.w;
    }
  }
  return sum;
}

double flip_gain(const graph::Graph& g, const Assignment& assignment,
                 graph::NodeId u) {
  if (assignment.size() != static_cast<std::size_t>(g.num_nodes())) {
    throw std::invalid_argument("flip_gain: assignment size mismatch");
  }
  double gain = 0.0;
  const std::uint8_t side = assignment[static_cast<std::size_t>(u)];
  for (const auto& [v, w] : g.neighbors(u)) {
    // Same-side edges become cut (+w); cut edges become internal (-w).
    gain += (assignment[static_cast<std::size_t>(v)] == side) ? w : -w;
  }
  return gain;
}

Assignment assignment_from_bits(std::uint64_t bits, graph::NodeId n) {
  if (n < 0 || n > 64) {
    throw std::invalid_argument("assignment_from_bits: n must be in [0, 64]");
  }
  Assignment out(static_cast<std::size_t>(n));
  for (graph::NodeId i = 0; i < n; ++i) {
    out[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((bits >> i) & 1U);
  }
  return out;
}

std::uint64_t bits_from_assignment(const Assignment& assignment) {
  if (assignment.size() > 64) {
    throw std::invalid_argument("bits_from_assignment: more than 64 nodes");
  }
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    if (assignment[i]) bits |= (1ULL << i);
  }
  return bits;
}

}  // namespace qq::maxcut
