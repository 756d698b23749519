#pragma once
// Canonical graph fingerprinting for the fleet-wide solve cache (ROADMAP
// item 4): an isomorphism-invariant key so two requests whose sub-graphs
// differ only by vertex labeling share one cache entry.
//
// The key is derived from a CANONICAL RELABELING: iterated WL-style color
// refinement over (degree, incident-weight multiset) signals, completed by
// an individualization-refinement search when refinement alone leaves
// symmetric vertices indistinguishable (cycles, cliques, stars). The search
// prunes sibling branches whose swap is a provable automorphism (equal
// weight rows) and is bounded by a work budget; on exhaustion the labeling
// is completed deterministically from the original ids and the fingerprint
// is marked non-`canonical` — still SOUND (lookups verify the full
// canonical edge list, so a false hit is impossible), it merely stops
// guaranteeing that every isomorphic relabeling maps to the same key.
//
// Alongside the structural key a weight `digest` (hashed over the weight
// bit patterns in canonical order, -0.0 normalized) makes near-miss pairs —
// one weight flipped, one edge moved — hash apart, and the stored
// canon_to_orig permutation maps a cached assignment back onto the
// requester's labeling.

#include <cstdint>
#include <vector>

#include "maxcut/cut.hpp"
#include "qgraph/graph.hpp"

namespace qq::cache {

/// One edge of the canonical form: endpoints in canonical labels (u < v),
/// weight as a normalized bit pattern (exact comparison, no tolerance).
struct CanonicalEdge {
  graph::NodeId u = 0;
  graph::NodeId v = 0;
  std::uint64_t w_bits = 0;

  friend bool operator==(const CanonicalEdge& a,
                         const CanonicalEdge& b) noexcept {
    return a.u == b.u && a.v == b.v && a.w_bits == b.w_bits;
  }
};

struct Fingerprint {
  /// Hash of (node count, canonical edge list with weights).
  std::uint64_t key = 0;
  /// Independent hash over the weight bit patterns in canonical order — the
  /// collision check rides 128 combined bits, not 64.
  std::uint64_t digest = 0;
  graph::NodeId num_nodes = 0;
  /// True when the individualization-refinement search completed within
  /// budget: every isomorphic relabeling of the graph produces this exact
  /// canonical form. False = label-dependent completion (sound, see above).
  bool canonical = false;
  /// canon_to_orig[c] = the original vertex at canonical position c.
  std::vector<graph::NodeId> canon_to_orig;
  /// Canonical edge list, sorted by (u, v). The cache compares this exactly
  /// on every lookup, so equal (key, digest) can never alias two different
  /// canonical graphs.
  std::vector<CanonicalEdge> edges;
};

/// Normalized weight bit pattern (-0.0 -> 0.0) — the exact-equality domain
/// every fingerprint comparison lives in.
std::uint64_t weight_bits(double w) noexcept;

/// Compute the canonical fingerprint of `g`.
Fingerprint fingerprint_graph(const graph::Graph& g);

/// True when two fingerprints denote the SAME canonical graph (exact node
/// count + edge-list + digest equality; hash equality is necessary but not
/// trusted).
bool same_canonical_graph(const Fingerprint& a, const Fingerprint& b) noexcept;

/// Map an assignment given in the fingerprinted graph's original labeling
/// into canonical labeling (what the cache stores)...
maxcut::Assignment to_canonical(const Fingerprint& fp,
                                const maxcut::Assignment& original);

/// ... and back: a canonical assignment onto this fingerprint's original
/// labeling (what a hit hands the requester).
maxcut::Assignment from_canonical(const Fingerprint& fp,
                                  const maxcut::Assignment& canonical);

}  // namespace qq::cache
