#pragma once

// The set-cover reference checks: Statement 4's feasibility question asked
// one case at a time through core::covers (core/parity.hpp), with no
// kernel involved. The library asks the same questions of a CoverKernel
// (core/coverkernel.hpp); tests check solver covers and kernel answers
// against these loops. Tests link them from the ced_oracles library
// (tests/CMakeLists.txt); nothing in the library calls them.

#include <cstdint>
#include <span>
#include <vector>

#include "core/parity.hpp"

namespace ced::core {

/// True iff the parity set covers every case (the integer feasibility test
/// of Statement 4, evaluated exactly in GF(2)).
bool covers_all(std::span<const ParityFunc> betas,
                const DetectabilityTable& table);

/// Indices of cases not covered by the set, ascending.
std::vector<std::uint32_t> uncovered_cases(std::span<const ParityFunc> betas,
                                           const DetectabilityTable& table);

}  // namespace ced::core
