#pragma once
// Shared helpers of the bit-for-bit parity suites: run a check under every
// SIMD backend the build and machine support, and compare states by bytes.

#include <cstring>
#include <vector>

#include "qsim/simd.hpp"
#include "qsim/statevector.hpp"

namespace qq::testing {

/// Restores the entry backend when a test exits (even on failure).
class IsaGuard {
 public:
  IsaGuard() : saved_(sim::simd::active_isa()) {}
  ~IsaGuard() { sim::simd::set_isa(saved_); }
  IsaGuard(const IsaGuard&) = delete;
  IsaGuard& operator=(const IsaGuard&) = delete;

 private:
  sim::simd::Isa saved_;
};

/// Backends this build + machine can actually install, scalar first.
inline std::vector<sim::simd::Isa> available_isas() {
  IsaGuard guard;
  std::vector<sim::simd::Isa> isas{sim::simd::Isa::kScalar};
  for (const sim::simd::Isa isa :
       {sim::simd::Isa::kAvx2, sim::simd::Isa::kAvx512}) {
    if (sim::simd::set_isa(isa) == isa) isas.push_back(isa);
  }
  return isas;
}

/// Same size and the same amplitude bytes (memcmp, so -0.0 != +0.0).
inline bool bits_equal(const sim::StateVector& a, const sim::StateVector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(sim::Amplitude)) == 0;
}

}  // namespace qq::testing
