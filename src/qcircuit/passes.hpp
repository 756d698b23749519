#pragma once
// Circuit optimization passes — the synthesis-engine substitute (paper
// §3.5: "the synthesis engine can optimize over circuit depth, number of
// qubits, two-qubit gates ...").
//
// Pipeline contract: every pass preserves the unitary up to global phase;
// the executor tests assert distribution-level equivalence on random
// circuits.

#include "qcircuit/circuit.hpp"

namespace qq::circuit {

/// Fuse runs of equal-kind rotations acting on the same qubit (pair) with
/// no interposed gate on those qubits: RZ(a) RZ(b) -> RZ(a+b), likewise RX
/// and RZZ on the identical unordered pair.
Circuit merge_rotations(const Circuit& qc);

/// Drop rotations whose angle is a multiple of 2*pi (within tol) and other
/// exact identities produced by merging.
Circuit drop_identities(const Circuit& qc, double tol = 1e-12);

/// Cancel adjacent self-inverse pairs on the same qubits with nothing in
/// between: H H and CX CX (same control and target).
Circuit cancel_pairs(const Circuit& qc);

/// Reorder each run of mutually commuting RZZ gates (a QAOA cost layer) by
/// greedy edge colouring so gates on disjoint qubit pairs land in the same
/// layer; reduces depth without changing the unitary (diagonal gates
/// commute).
Circuit schedule_commuting_rzz(const Circuit& qc);

/// Lower to a {CX, 1q} hardware basis: RZZ(t) -> CX RZ(t) CX.
Circuit transpile_to_cx_basis(const Circuit& qc);

/// The full "synthesis engine": merge -> drop -> cancel -> schedule.
Circuit synthesize(const Circuit& qc);

}  // namespace qq::circuit
