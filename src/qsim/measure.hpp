#pragma once
// Measurement, sampling and expectation utilities over a StateVector.
//
// The paper simulates 4096 shots per circuit execution and, for solution
// extraction, "the bit string corresponding to the highest amplitude ... is
// chosen" (§3.2) — with the top-k variant flagged as the obvious
// improvement (§5). Both are provided.

#include <cstdint>
#include <utility>
#include <vector>

#include "qsim/statevector.hpp"
#include "util/rng.hpp"

namespace qq::sim {

/// |amp|^2 for every basis state (2^n doubles).
std::vector<double> probabilities(const StateVector& sv);

/// Basis state with the largest probability (ties -> smallest index).
BasisState argmax_probability(const StateVector& sv);

/// The k most probable basis states, sorted by descending probability.
std::vector<std::pair<BasisState, double>> top_k_states(const StateVector& sv,
                                                        int k);

/// Sample `shots` basis states from |psi|^2 via inverse-CDF binary search.
std::vector<BasisState> sample_counts(const StateVector& sv, int shots,
                                      util::Rng& rng);

/// Workspace variant of sample_counts: the CDF scratch and the output shot
/// buffer are caller-owned and reused, so repeated sampling (the QAOA
/// shot-based objective) is allocation-free in steady state. `out` is
/// cleared and refilled; `cdf` is resized to 2^n on first use.
void sample_counts_into(const StateVector& sv, int shots, util::Rng& rng,
                        std::vector<double>& cdf,
                        std::vector<BasisState>& out);

/// Σ_s |amp_s|^2 * values[s] — expectation of any diagonal observable
/// (H_C evaluation uses the per-state cut table).
double expectation_diagonal(const StateVector& sv,
                            const std::vector<double>& values);

/// The same sum for the (n+1)-qubit flip-symmetric state whose half is
/// `half` (StateVector::reset_to_plus_half): values has 2^(n+1) entries, and
/// states z >= 2^n read slot 2^(n+1) - 1 - z. The sum keeps the full state's
/// index order and chunk plan, so it is bit-for-bit expectation_diagonal on
/// the expanded state.
double expectation_diagonal_mirror(const StateVector& half,
                                   const std::vector<double>& values);

/// <Z_a Z_b>.
double expectation_zz(const StateVector& sv, int a, int b);

}  // namespace qq::sim
