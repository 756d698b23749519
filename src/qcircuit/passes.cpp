#include "qcircuit/passes.hpp"

#include <cmath>
#include <numbers>
#include <vector>

namespace qq::circuit {

namespace {

bool same_pair_unordered(const Gate& a, const Gate& b) {
  return (a.q0 == b.q0 && a.q1 == b.q1) || (a.q0 == b.q1 && a.q1 == b.q0);
}

/// The self-inverse kinds are H and CX; for CX the (control, target) order
/// is semantic.
bool cancels_with(const Gate& a, const Gate& b) {
  if (a.kind != b.kind) return false;
  if (a.kind == GateKind::kH) return a.q0 == b.q0;
  return a.kind == GateKind::kCx && a.q0 == b.q0 && a.q1 == b.q1;
}

}  // namespace

Circuit merge_rotations(const Circuit& qc) {
  Circuit out(qc.num_qubits());
  std::vector<Gate> gates;  // staged output
  std::vector<int> last(static_cast<std::size_t>(qc.num_qubits()), -1);

  for (const Gate& g : qc.gates()) {
    const auto q0 = static_cast<std::size_t>(g.q0);
    if (is_rotation(g.kind)) {
      const bool two = is_two_qubit(g.kind);
      const int prev0 = last[q0];
      const int prev1 = two ? last[static_cast<std::size_t>(g.q1)] : prev0;
      if (prev0 >= 0 && prev0 == prev1) {
        Gate& candidate = gates[static_cast<std::size_t>(prev0)];
        const bool fuses =
            candidate.kind == g.kind &&
            (two ? same_pair_unordered(candidate, g) : candidate.q0 == g.q0);
        if (fuses) {
          candidate.param += g.param;
          continue;
        }
      }
    }
    const int idx = static_cast<int>(gates.size());
    gates.push_back(g);
    last[q0] = idx;
    if (is_two_qubit(g.kind)) last[static_cast<std::size_t>(g.q1)] = idx;
  }
  for (const Gate& g : gates) out.append(g);
  return out;
}

Circuit drop_identities(const Circuit& qc, double tol) {
  Circuit out(qc.num_qubits());
  constexpr double two_pi = 2.0 * std::numbers::pi;
  for (const Gate& g : qc.gates()) {
    if (is_rotation(g.kind)) {
      const double wrapped = std::remainder(g.param, two_pi);
      // Angles that are exact multiples of 2*pi act as +/- identity (global
      // phase only), which pass contracts allow dropping.
      if (std::abs(wrapped) <= tol) continue;
    }
    out.append(g);
  }
  return out;
}

Circuit cancel_pairs(const Circuit& qc) {
  std::vector<Gate> gates(qc.gates().begin(), qc.gates().end());
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<char> dead(gates.size(), 0);
    std::vector<int> last(static_cast<std::size_t>(qc.num_qubits()), -1);
    for (std::size_t i = 0; i < gates.size(); ++i) {
      const Gate& g = gates[i];
      const auto q0 = static_cast<std::size_t>(g.q0);
      const bool two = is_two_qubit(g.kind);
      const int prev0 = last[q0];
      const int prev1 = two ? last[static_cast<std::size_t>(g.q1)] : prev0;
      if (prev0 >= 0 && prev0 == prev1 &&
          cancels_with(gates[static_cast<std::size_t>(prev0)], g)) {
        dead[static_cast<std::size_t>(prev0)] = 1;
        dead[i] = 1;
        changed = true;
        // Invalidate tracking for the touched qubits; a conservative reset
        // (next pass re-resolves chains such as H H H H).
        last[q0] = -1;
        if (two) last[static_cast<std::size_t>(g.q1)] = -1;
        continue;
      }
      last[q0] = static_cast<int>(i);
      if (two) last[static_cast<std::size_t>(g.q1)] = static_cast<int>(i);
    }
    if (changed) {
      std::vector<Gate> kept;
      kept.reserve(gates.size());
      for (std::size_t i = 0; i < gates.size(); ++i) {
        if (!dead[i]) kept.push_back(gates[i]);
      }
      gates.swap(kept);
    }
  }
  Circuit out(qc.num_qubits());
  for (const Gate& g : gates) out.append(g);
  return out;
}

Circuit schedule_commuting_rzz(const Circuit& qc) {
  Circuit out(qc.num_qubits());
  const auto& gates = qc.gates();
  std::size_t i = 0;
  while (i < gates.size()) {
    if (gates[i].kind != GateKind::kRzz) {
      out.append(gates[i]);
      ++i;
      continue;
    }
    // Maximal run of consecutive RZZ gates: mutually commuting (all
    // diagonal in Z), so any ordering is equivalent. Greedy edge colouring
    // packs disjoint pairs into common layers.
    std::size_t j = i;
    while (j < gates.size() && gates[j].kind == GateKind::kRzz) ++j;
    std::vector<int> color(j - i, -1);
    std::vector<std::vector<char>> used;  // per colour: qubit occupancy
    int max_color = -1;
    for (std::size_t k = i; k < j; ++k) {
      const auto a = static_cast<std::size_t>(gates[k].q0);
      const auto b = static_cast<std::size_t>(gates[k].q1);
      int c = 0;
      for (;; ++c) {
        if (c > max_color) {
          used.emplace_back(static_cast<std::size_t>(qc.num_qubits()), 0);
          max_color = c;
        }
        if (!used[static_cast<std::size_t>(c)][a] &&
            !used[static_cast<std::size_t>(c)][b]) {
          break;
        }
      }
      used[static_cast<std::size_t>(c)][a] = 1;
      used[static_cast<std::size_t>(c)][b] = 1;
      color[k - i] = c;
    }
    for (int c = 0; c <= max_color; ++c) {
      for (std::size_t k = i; k < j; ++k) {
        if (color[k - i] == c) out.append(gates[k]);
      }
    }
    i = j;
  }
  return out;
}

Circuit transpile_to_cx_basis(const Circuit& qc) {
  Circuit out(qc.num_qubits());
  for (const Gate& g : qc.gates()) {
    if (g.kind == GateKind::kRzz) {
      out.cx(g.q0, g.q1);
      out.rz(g.q1, g.param);
      out.cx(g.q0, g.q1);
    } else {
      out.append(g);
    }
  }
  return out;
}

Circuit synthesize(const Circuit& qc) {
  return schedule_commuting_rzz(cancel_pairs(drop_identities(merge_rotations(qc))));
}

}  // namespace qq::circuit
