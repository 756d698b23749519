#pragma once
// Random circuits over every gate kind, shared by the pass-equivalence
// suite (qcircuit_test.cpp) and the executor pin (noise_test.cpp).

#include "qcircuit/circuit.hpp"
#include "util/rng.hpp"

namespace qq::testing {

/// `gates` gates on n qubits drawn from H, RX, RZ, CX and RZZ; a one-qubit
/// circuit draws from the single-qubit kinds only.
inline circuit::Circuit random_circuit(int n, int gates, util::Rng& rng) {
  circuit::Circuit qc(n);
  for (int i = 0; i < gates; ++i) {
    const int q = util::uniform_int(rng, 0, n - 1);
    int q2 = util::uniform_int(rng, 0, n - 1);
    while (n > 1 && q2 == q) q2 = util::uniform_int(rng, 0, n - 1);
    const double t = util::uniform(rng, -2.5, 2.5);
    switch (util::uniform_int(rng, 0, n > 1 ? 4 : 2)) {
      case 0: qc.h(q); break;
      case 1: qc.rx(q, t); break;
      case 2: qc.rz(q, t); break;
      case 3: qc.cx(q, q2); break;
      default: qc.rzz(q, q2, t); break;
    }
  }
  return qc;
}

}  // namespace qq::testing
