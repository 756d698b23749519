// Distribution profile of QAOA simulation (paper ref. [34], Doi & Horii
// cache blocking — the technique behind the paper's MPI-distributed Aer
// runs on up to 512 nodes): emulate a 2^k-rank amplitude partition and
// measure the communication volume a QAOA circuit generates.
//
// The headline: QAOA cost layers are diagonal and therefore
// communication-free; only the mixer's RX gates on the k "global" qubits
// exchange data. That is why a 33-qubit QAOA state (128 GiB) can be
// simulated across hundreds of nodes with modest traffic.
//
//   ./bench_distribution [--qubits 16] [--layers 3]

#include <cstdio>
#include <string>

#include "qgraph/generators.hpp"
#include "qsim/blocked.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  const qq::util::Args args(argc, argv);
  const int n = args.get_int("qubits", 16);
  const int layers = args.get_int("layers", 3);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 22));
  args.reject_unknown();

  qq::util::Rng rng(seed);
  const auto g = qq::graph::erdos_renyi(
      static_cast<qq::graph::NodeId>(n), 0.3, rng);

  std::printf("=== Distribution profile: QAOA on a 2^k-rank amplitude "
              "partition ===\n");
  std::printf("%d qubits, %zu edges, p = %d (state = %.1f MiB)\n\n",
              n, g.num_edges(), layers,
              static_cast<double>(sizeof(qq::sim::Amplitude)
                                  * (1ULL << n)) / (1024.0 * 1024.0));

  qq::util::Table table({"ranks (2^k)", "global qubits", "exchanged amps",
                         "exchange/state size", "comm-free gates",
                         "seconds"});
  for (const int k : {0, 1, 2, 4, 6}) {
    if (k > n) break;
    qq::util::Timer timer;
    qq::sim::BlockedStateVector sv(n, k);
    sv.set_plus_state();
    for (int layer = 0; layer < layers; ++layer) {
      const double gamma = 0.2 + 0.1 * layer;
      const double beta = 0.6 - 0.1 * layer;
      for (const auto& e : g.edges()) {
        sv.apply_rzz(e.u, e.v, -gamma * e.w);  // cost layer: diagonal
      }
      for (int q = 0; q < n; ++q) sv.apply_rx(q, 2.0 * beta);  // mixer
    }
    const auto& stats = sv.stats();
    const double state_size = static_cast<double>(1ULL << n);
    table.add_row(
        {std::to_string(1 << k), std::to_string(k),
         std::to_string(stats.amps_exchanged),
         qq::util::format_double(
             static_cast<double>(stats.amps_exchanged) / state_size, 2),
         std::to_string(stats.local_gates),
         qq::util::format_double(timer.seconds(), 3)});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("expected shape: exchanged volume = layers * k * 2^n "
              "amplitudes — every cost layer (all RZZ, diagonal) is free, "
              "and each mixer pays one full-state exchange per global "
              "qubit. Doubling the rank count adds exactly one global "
              "qubit's traffic per layer.\n");
  return 0;
}
