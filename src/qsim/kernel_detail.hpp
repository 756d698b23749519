#pragma once
// Internal helpers shared by the qsim kernel translation units
// (statevector.cpp, measure.cpp). Not part of the public API.
//
// The insertion enumerators are the backbone of every pair/subset kernel:
// they spread a dense counter over the bit positions a gate does NOT act
// on, so the kernels iterate exactly the index subset they touch (see
// DESIGN.md "Kernel index enumeration").

#include <algorithm>
#include <cstdint>

#include "qsim/statevector.hpp"

namespace qq::sim::detail {

/// Chunk grain for the parallel sweeps/reductions over amplitude arrays:
/// small enough to load-balance, large enough that per-chunk dispatch cost
/// vanishes against 2^14 complex updates.
inline constexpr std::size_t kParallelGrain = 1 << 14;

/// Chunk grain for the per-level std::polar loops of the level-table cost
/// sweeps. A sincos costs an order of magnitude more than an amplitude
/// update, so a table with many levels (random real weights reach
/// 2^(n-1)) still spreads over the pool.
inline constexpr std::size_t kPhaseGrain = 1 << 11;

/// Spread index t over the bit positions excluding `q`: returns the basis
/// index with bit q forced to zero whose remaining bits enumerate t.
inline BasisState insert_zero_bit(std::uint64_t t, int q) noexcept {
  const BasisState mask = (BasisState{1} << q) - 1;
  return ((t & ~mask) << 1) | (t & mask);
}

/// Spread index t over the bit positions excluding `lo` and `hi` (lo < hi):
/// basis index with both bits forced to zero.
inline BasisState insert_two_zero_bits(std::uint64_t t, int lo,
                                       int hi) noexcept {
  return insert_zero_bit(insert_zero_bit(t, lo), hi);
}

/// Walk [t_lo, t_hi) of an insertion enumeration whose images are contiguous
/// in address space for every aligned group of `run` consecutive t values
/// (`run` a power of two). Calls fn(map(t), len) for each maximal run, where
/// map(t) is the amplitude index of t and [map(t), map(t)+len) is contiguous.
/// This is how the kernels turn subset enumeration into streaming runs that
/// feed the simd.hpp primitives instead of per-element branches.
template <typename Map, typename Fn>
inline void walk_runs(std::size_t t_lo, std::size_t t_hi, std::size_t run,
                      Map map, Fn fn) {
  std::size_t t = t_lo;
  while (t < t_hi) {
    const std::size_t in_run = t & (run - 1);
    const std::size_t len = std::min(run - in_run, t_hi - t);
    fn(map(t), len);
    t += len;
  }
}

}  // namespace qq::sim::detail
