#include "qsim/level_table.hpp"

#include <bit>
#include <limits>
#include <stdexcept>

namespace qq::sim {

namespace {

constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();

std::size_t slot_of(std::uint64_t bits, int log_cap) noexcept {
  return static_cast<std::size_t>((bits * 0x9e3779b97f4a7c15ULL) >>
                                  (64 - log_cap));
}

}  // namespace

LevelTable::LevelTable(const std::vector<double>& diagonal)
    : LevelTable(diagonal, diagonal.size()) {}

LevelTable::LevelTable(const std::vector<double>& diagonal,
                       std::size_t prefix) {
  if (prefix > diagonal.size()) {
    throw std::invalid_argument("LevelTable: prefix exceeds the diagonal");
  }
  if (prefix >= kEmpty) {
    throw std::length_error("LevelTable: diagonal too large for u32 levels");
  }
  level_.resize(prefix);
  // Open addressing from bit pattern to level, kept at most half full.
  int log_cap = 6;
  std::vector<std::uint32_t> slots(std::size_t{1} << log_cap, kEmpty);
  const auto key = [this](std::uint32_t k) {
    return std::bit_cast<std::uint64_t>(values_[k]);
  };
  for (std::size_t z = 0; z < prefix; ++z) {
    const auto bits = std::bit_cast<std::uint64_t>(diagonal[z]);
    const std::size_t mask = slots.size() - 1;
    std::size_t h = slot_of(bits, log_cap);
    while (slots[h] != kEmpty && key(slots[h]) != bits) h = (h + 1) & mask;
    if (slots[h] == kEmpty) {
      slots[h] = static_cast<std::uint32_t>(values_.size());
      values_.push_back(diagonal[z]);
      if (2 * values_.size() > slots.size()) {
        ++log_cap;
        slots.assign(std::size_t{1} << log_cap, kEmpty);
        const std::size_t grown = slots.size() - 1;
        for (std::uint32_t k = 0; k < values_.size(); ++k) {
          std::size_t s = slot_of(key(k), log_cap);
          while (slots[s] != kEmpty) s = (s + 1) & grown;
          slots[s] = k;
        }
      }
      level_[z] = static_cast<std::uint32_t>(values_.size() - 1);
    } else {
      level_[z] = slots[h];
    }
  }
}

}  // namespace qq::sim
