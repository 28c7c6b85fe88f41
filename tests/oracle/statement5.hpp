#pragma once

// The literal Statement 5 of the paper, the reference the production
// formulation (core::build_lp) is checked against. Tests link it from the
// ced_oracles library (tests/CMakeLists.txt).

#include <cstdint>
#include <span>

#include "core/extract.hpp"
#include "lp/simplex.hpp"

namespace ced::core {

/// Builds the LP relaxation of Statement 5 over `rows` of `table` with q
/// trees, including the w variables and the mod-removing equalities
/// V(i,:,k) beta^{(l)} = 2 w + r. Its objective is build_lp's (minimize
/// the sum of beta), so equal optima show that build_lp's elimination of w
/// is an exact reformulation.
lp::LpProblem build_lp_statement5(const DetectabilityTable& table,
                                  std::span<const std::uint32_t> rows, int q);

}  // namespace ced::core
