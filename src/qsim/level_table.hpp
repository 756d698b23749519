#pragma once
// A diagonal operator stored as its distinct entries plus one level index
// per basis state. A MaxCut cut table has at most |E|+1 distinct values on
// a unit-weight graph and at most 2^(n-1) on any graph (Cut(z) == Cut(~z)),
// so a cost layer exp(-i γ diag) needs one sincos per level instead of one
// per amplitude: the level overloads of apply_diagonal_phase compute the
// phase of every level once, then multiply each amplitude by
// phase[level[z]].
//
// Levels are deduplicated by bit pattern, not by ==: +0.0 and -0.0 (and
// two NaNs with different payloads) are distinct levels, because
// std::polar(1.0, -scale * v) can give differently signed zeros for them.
// Each amplitude therefore sees exactly the phase the dense path computes
// from its own table entry, and the level sweep is bit-for-bit the dense
// sweep.

#include <cstdint>
#include <vector>

namespace qq::sim {

class LevelTable {
 public:
  /// Deduplicates `diagonal` (one entry per basis state). Levels are
  /// numbered in order of first appearance along the basis index.
  explicit LevelTable(const std::vector<double>& diagonal);
  /// The table of diagonal[0, prefix) only: a flip-symmetric cut table's
  /// first half, for the half state that stores the z whose top bit is 0.
  LevelTable(const std::vector<double>& diagonal, std::size_t prefix);

  /// Basis states covered (the dense table's size).
  std::size_t size() const noexcept { return level_.size(); }
  /// Distinct entries, values()[k] being level k.
  const std::vector<double>& values() const noexcept { return values_; }
  /// level()[z] indexes values(); every index is < values().size().
  const std::vector<std::uint32_t>& level() const noexcept { return level_; }

 private:
  std::vector<double> values_;
  std::vector<std::uint32_t> level_;
};

}  // namespace qq::sim
