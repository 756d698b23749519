#include "cache/fingerprint.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "util/rng.hpp"

namespace qq::cache {

namespace {

using graph::Graph;
using graph::NodeId;

/// Refinement work budget (roughly node visits) of the
/// individualization-refinement search. Exhaustion degrades to a
/// deterministic-but-label-dependent completion (`canonical = false`),
/// never to an error. It comfortably canonicalizes every device-sized leaf
/// (<= ~32 nodes) exactly.
constexpr std::size_t kWorkBudget = 200000;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept {
  util::SplitMix64 sm(h ^ (v * 0x9e3779b97f4a7c15ULL));
  return sm.next();
}

/// The refinement/search state shared down the recursion: the graph viewed
/// through adjacency with precomputed weight bits, the global work budget,
/// and the best (lexicographically smallest) canonical leaf found so far.
struct Canonicalizer {
  const Graph& g;
  NodeId n;
  /// CSR adjacency: node u's (neighbor, weight bits) row is
  /// flat[off[u] .. off[u+1]), in no particular order (the refinement hash
  /// is commutative). Flat layout (plus the reused refine() scratch below)
  /// keeps the hot path — fingerprinting on every cache lookup —
  /// allocation-free after construction.
  std::vector<std::size_t> off;
  std::vector<std::pair<NodeId, std::uint64_t>> flat;
  std::size_t budget = kWorkBudget;
  bool exhausted = false;

  // refine() scratch, reused across the search's refinement calls.
  std::vector<std::uint64_t> sig;
  std::vector<NodeId> order;
  std::vector<int> next;

  bool have_best = false;
  std::vector<CanonicalEdge> best_edges;
  std::vector<NodeId> best_canon_to_orig;

  explicit Canonicalizer(const Graph& graph)
      : g(graph), n(graph.num_nodes()) {
    const std::vector<graph::Edge>& es = g.edges();
    off.assign(static_cast<std::size_t>(n) + 1, 0);
    for (const graph::Edge& e : es) {
      ++off[static_cast<std::size_t>(e.u) + 1];
      ++off[static_cast<std::size_t>(e.v) + 1];
    }
    for (std::size_t i = 1; i <= static_cast<std::size_t>(n); ++i) {
      off[i] += off[i - 1];
    }
    flat.resize(off[static_cast<std::size_t>(n)]);
    // Scatter using off[u] itself as the write cursor; afterwards each
    // off[u] has advanced to its row's end, i.e. the next row's start, so
    // one backward shift restores the offsets without a cursor copy.
    for (const graph::Edge& e : es) {
      const std::uint64_t wb = weight_bits(e.w);
      flat[off[static_cast<std::size_t>(e.u)]++] = {e.v, wb};
      flat[off[static_cast<std::size_t>(e.v)]++] = {e.u, wb};
    }
    for (std::size_t i = static_cast<std::size_t>(n); i > 0; --i) {
      off[i] = off[i - 1];
    }
    off[0] = 0;
    sig.resize(static_cast<std::size_t>(n));
    order.resize(static_cast<std::size_t>(n));
    next.resize(static_cast<std::size_t>(n));
  }

  std::size_t degree(NodeId u) const noexcept {
    return off[static_cast<std::size_t>(u) + 1] -
           off[static_cast<std::size_t>(u)];
  }

  void charge(std::size_t units) {
    if (budget >= units) {
      budget -= units;
    } else {
      budget = 0;
      exhausted = true;
    }
  }

  /// WL color refinement to an equitable partition. Signatures contain only
  /// colors and weight bits — never original ids — so the refinement (and
  /// the cell order it induces) is isomorphism-invariant. Each node's
  /// neighborhood multiset is summarized by a commutative 64-bit hash
  /// (degree-salted sum of mixed (color, weight) pairs): order-independent
  /// without sorting, and a collision can only merge cells — a coarser
  /// partition the individualization search and the exact canonical
  /// edge-list verify remain sound under. Returns the color count of the
  /// stable partition.
  int refine(std::vector<int>& colors) {
    int num_colors = 1 + *std::max_element(colors.begin(), colors.end());
    for (;;) {
      charge(static_cast<std::size_t>(n));
      if (exhausted) return num_colors;
      for (NodeId u = 0; u < n; ++u) {
        const auto su = static_cast<std::size_t>(u);
        std::uint64_t h = static_cast<std::uint64_t>(degree(u));
        for (std::size_t k = off[su]; k < off[su + 1]; ++k) {
          // Inline xorshift-multiply avalanche (cheaper than mix()'s
          // SplitMix64 round; still enough diffusion that the commutative
          // sum keeps distinct multisets apart).
          std::uint64_t z =
              (static_cast<std::uint64_t>(
                   colors[static_cast<std::size_t>(flat[k].first)]) +
               1) * 0x9e3779b97f4a7c15ULL ^
              flat[k].second * 0xff51afd7ed558ccdULL;
          z ^= z >> 33;
          z *= 0xc4ceb9fe1a85ec53ULL;
          z ^= z >> 29;
          h += z;
        }
        sig[su] = h;
      }
      // New color = rank of (old color, signature): old cell boundaries are
      // preserved (a refinement, never a coarsening) and the rank depends
      // only on invariant data.
      std::iota(order.begin(), order.end(), NodeId{0});
      std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
        const auto sa = static_cast<std::size_t>(a);
        const auto sb = static_cast<std::size_t>(b);
        if (colors[sa] != colors[sb]) return colors[sa] < colors[sb];
        return sig[sa] < sig[sb];
      });
      int count = 0;
      for (std::size_t i = 0; i < order.size(); ++i) {
        if (i > 0) {
          const auto prev = static_cast<std::size_t>(order[i - 1]);
          const auto cur = static_cast<std::size_t>(order[i]);
          if (colors[prev] != colors[cur] || sig[prev] != sig[cur]) {
            ++count;
          }
        }
        next[static_cast<std::size_t>(order[i])] = count;
      }
      ++count;
      // Stable when no cell split; a discrete partition is trivially stable
      // too, so skip the confirming pass (the common case for distinct
      // weights, which discretize in one iteration).
      const bool stable = count == num_colors || count == static_cast<int>(n);
      std::swap(colors, next);
      num_colors = count;
      if (stable) return num_colors;
    }
  }

  /// Cheap automorphism check: swapping u and v (same cell) is an
  /// automorphism iff their weight rows agree everywhere outside the pair.
  /// Catches the interchangeable-vertex cells (cliques, stars, independent
  /// sets, equal-weight twins) that would otherwise explode the search.
  bool transposition_automorphism(NodeId u, NodeId v) const {
    if (degree(u) != degree(v)) return false;
    // Compare rows with u<->v substituted; both are sorted by neighbor id,
    // so substitute + resort the small copies (cold path: only runs inside
    // the branch-pruning loop of the search, never on plain lookups).
    auto row = [&](NodeId self, NodeId other) {
      std::vector<std::pair<NodeId, std::uint64_t>> out;
      out.reserve(degree(self));
      const auto ss = static_cast<std::size_t>(self);
      for (std::size_t k = off[ss]; k < off[ss + 1]; ++k) {
        out.emplace_back(flat[k].first == other ? self : flat[k].first,
                         flat[k].second);
      }
      std::sort(out.begin(), out.end());
      return out;
    };
    return row(u, v) == row(v, u);
  }

  /// First (lowest-color) non-singleton cell, or -1 when discrete. The
  /// choice is by color value, which is isomorphism-invariant.
  int target_cell(const std::vector<int>& colors, int num_colors,
                  std::vector<NodeId>& members) const {
    if (num_colors == static_cast<int>(n)) return -1;
    std::vector<int> count(static_cast<std::size_t>(num_colors), 0);
    for (NodeId u = 0; u < n; ++u) {
      ++count[static_cast<std::size_t>(colors[static_cast<std::size_t>(u)])];
    }
    int cell = -1;
    for (int c = 0; c < num_colors; ++c) {
      if (count[static_cast<std::size_t>(c)] > 1) {
        cell = c;
        break;
      }
    }
    members.clear();
    for (NodeId u = 0; u < n; ++u) {
      if (colors[static_cast<std::size_t>(u)] == cell) members.push_back(u);
    }
    return cell;
  }

  /// Individualize `v`: v keeps its cell's color, every other vertex at or
  /// above that color shifts up — v becomes a singleton placed first in its
  /// former cell, preserving the partition order.
  static void individualize(std::vector<int>& colors, NodeId v) {
    const int cv = colors[static_cast<std::size_t>(v)];
    for (std::size_t w = 0; w < colors.size(); ++w) {
      if (static_cast<NodeId>(w) != v && colors[w] >= cv) ++colors[w];
    }
  }

  /// Record the discrete partition as a candidate leaf; keep the
  /// lexicographically smallest canonical edge list.
  void record_leaf(const std::vector<int>& colors) {
    std::vector<NodeId> canon_to_orig(static_cast<std::size_t>(n));
    for (NodeId u = 0; u < n; ++u) {
      canon_to_orig[static_cast<std::size_t>(
          colors[static_cast<std::size_t>(u)])] = u;
    }
    // Counting sort by canonical source: bucket offsets from the lower
    // endpoint's color, then a tiny sort per bucket by the other endpoint —
    // O(m + n) instead of a comparison sort over all m edges.
    const std::size_t m = g.num_edges();
    std::vector<std::size_t> bucket(static_cast<std::size_t>(n) + 1, 0);
    for (const graph::Edge& e : g.edges()) {
      const int cu = colors[static_cast<std::size_t>(e.u)];
      const int cv = colors[static_cast<std::size_t>(e.v)];
      ++bucket[static_cast<std::size_t>(std::min(cu, cv)) + 1];
    }
    for (std::size_t c = 1; c <= static_cast<std::size_t>(n); ++c) {
      bucket[c] += bucket[c - 1];
    }
    std::vector<CanonicalEdge> edges(m);
    // Scatter with bucket[c] as the write cursor: afterwards bucket[c] is
    // bucket c's end, and its start is bucket[c - 1] (0 for the first), so
    // the per-bucket sorts need no separate cursor array.
    for (const graph::Edge& e : g.edges()) {
      NodeId cu = static_cast<NodeId>(colors[static_cast<std::size_t>(e.u)]);
      NodeId cv = static_cast<NodeId>(colors[static_cast<std::size_t>(e.v)]);
      if (cu > cv) std::swap(cu, cv);
      edges[bucket[static_cast<std::size_t>(cu)]++] =
          CanonicalEdge{cu, cv, weight_bits(e.w)};
    }
    for (std::size_t c = 0; c < static_cast<std::size_t>(n); ++c) {
      const std::size_t begin = c == 0 ? 0 : bucket[c - 1];
      std::sort(edges.begin() + static_cast<std::ptrdiff_t>(begin),
                edges.begin() + static_cast<std::ptrdiff_t>(bucket[c]),
                [](const CanonicalEdge& a, const CanonicalEdge& b) {
                  return a.v < b.v;
                });
    }
    const auto less = [](const std::vector<CanonicalEdge>& a,
                         const std::vector<CanonicalEdge>& b) {
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].u != b[i].u) return a[i].u < b[i].u;
        if (a[i].v != b[i].v) return a[i].v < b[i].v;
        if (a[i].w_bits != b[i].w_bits) return a[i].w_bits < b[i].w_bits;
      }
      return false;
    };
    if (!have_best || less(edges, best_edges)) {
      have_best = true;
      best_edges = std::move(edges);
      best_canon_to_orig = std::move(canon_to_orig);
    }
  }

  /// Individualization-refinement search. `colors` is already equitable
  /// with `num_colors` cells. On budget exhaustion only the first branch of
  /// each cell is taken (and once a leaf exists, none), completing
  /// deterministically instead of canonically.
  void search(std::vector<int> colors, int num_colors) {
    std::vector<NodeId> cell;
    const int target = target_cell(colors, num_colors, cell);
    if (target < 0) {
      record_leaf(colors);
      return;
    }
    if (exhausted) {
      // Deterministic completion: order the stuck cells by original id.
      std::vector<NodeId> order(static_cast<std::size_t>(n));
      std::iota(order.begin(), order.end(), NodeId{0});
      std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
        const auto sa = static_cast<std::size_t>(a);
        const auto sb = static_cast<std::size_t>(b);
        return colors[sa] != colors[sb] ? colors[sa] < colors[sb] : a < b;
      });
      std::vector<int> complete(static_cast<std::size_t>(n));
      for (std::size_t i = 0; i < order.size(); ++i) {
        complete[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
      }
      record_leaf(complete);
      return;
    }
    std::vector<NodeId> tried;
    for (const NodeId v : cell) {
      if (exhausted && have_best) return;
      bool pruned = false;
      for (const NodeId u : tried) {
        charge(degree(u) + degree(v));
        if (transposition_automorphism(u, v)) {
          // The u- and v-branches are isomorphic images of each other:
          // they yield the same leaf set, so v's can be skipped without
          // losing the lexicographic minimum.
          pruned = true;
          break;
        }
      }
      if (pruned) continue;
      tried.push_back(v);
      std::vector<int> child = colors;
      individualize(child, v);
      const int child_colors = refine(child);
      search(std::move(child), child_colors);
      if (exhausted && have_best) return;
    }
  }
};

}  // namespace

std::uint64_t weight_bits(double w) noexcept {
  if (w == 0.0) w = 0.0;  // normalize -0.0
  std::uint64_t bits = 0;
  std::memcpy(&bits, &w, sizeof(bits));
  return bits;
}

Fingerprint fingerprint_graph(const graph::Graph& g) {
  Fingerprint fp;
  fp.num_nodes = g.num_nodes();
  const NodeId n = g.num_nodes();
  if (n > 0) {
    Canonicalizer canon(g);
    // Initial colors: (degree, incident-weight multiset) via one refinement
    // pass from the uniform coloring — the WL signal the search refines.
    std::vector<int> colors(static_cast<std::size_t>(n), 0);
    const int num_colors = canon.refine(colors);
    canon.search(std::move(colors), num_colors);
    fp.canonical = !canon.exhausted;
    fp.canon_to_orig = std::move(canon.best_canon_to_orig);
    fp.edges = std::move(canon.best_edges);
  }

  std::uint64_t key = mix(0x9ae16a3b2f90404fULL,
                          static_cast<std::uint64_t>(fp.num_nodes));
  std::uint64_t digest = mix(0xc3a5c85c97cb3127ULL,
                             static_cast<std::uint64_t>(fp.edges.size()));
  for (const CanonicalEdge& e : fp.edges) {
    const std::uint64_t uv = (static_cast<std::uint64_t>(e.u) << 32) |
                             static_cast<std::uint64_t>(
                                 static_cast<std::uint32_t>(e.v));
    // One mix per edge per hash; endpoint and weight bits are folded first
    // (multiplication spreads w_bits so uv ^ spread(w) stays injective
    // enough for the 64-bit mixes, and the digest uses a different fold so
    // the two hashes stay independent).
    key = mix(key, uv ^ (e.w_bits * 0x9e3779b97f4a7c15ULL));
    digest = mix(digest, uv + e.w_bits);
  }
  fp.key = key;
  fp.digest = digest;
  return fp;
}

bool same_canonical_graph(const Fingerprint& a,
                          const Fingerprint& b) noexcept {
  return a.num_nodes == b.num_nodes && a.digest == b.digest &&
         a.edges == b.edges;
}

maxcut::Assignment to_canonical(const Fingerprint& fp,
                                const maxcut::Assignment& original) {
  if (original.size() != fp.canon_to_orig.size()) {
    throw std::invalid_argument(
        "cache::to_canonical: assignment size does not match fingerprint");
  }
  maxcut::Assignment out(original.size());
  for (std::size_t c = 0; c < fp.canon_to_orig.size(); ++c) {
    out[c] = original[static_cast<std::size_t>(fp.canon_to_orig[c])];
  }
  return out;
}

maxcut::Assignment from_canonical(const Fingerprint& fp,
                                  const maxcut::Assignment& canonical) {
  if (canonical.size() != fp.canon_to_orig.size()) {
    throw std::invalid_argument(
        "cache::from_canonical: assignment size does not match fingerprint");
  }
  maxcut::Assignment out(canonical.size());
  for (std::size_t c = 0; c < fp.canon_to_orig.size(); ++c) {
    out[static_cast<std::size_t>(fp.canon_to_orig[c])] = canonical[c];
  }
  return out;
}

}  // namespace qq::cache
