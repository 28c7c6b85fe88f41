#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/extract.hpp"
#include "lp/simplex.hpp"

namespace ced::core {

/// An LP relaxation instance of the parity-selection problem for a fixed
/// number of trees `q` over a subset of the detectability table's rows.
/// Variable bookkeeping lets the rounding stage find the beta variables.
struct LpFormulation {
  lp::LpProblem problem;
  int q = 0;
  int n = 0;
  /// beta_var[l * n + j] = LP variable index of beta^{(l)}_j.
  std::vector<int> beta_var;
  /// Stable identity keys, one per LP variable / constraint. A key encodes
  /// what the variable or row *means* (beta^{(l)}_j, r/w of (row, l, k),
  /// the cover row of `row`), so the same key names the same object in any
  /// formulation over the same table — that is what lets a basis survive
  /// q -> q' and row-set changes (see map_basis_to).
  std::vector<std::uint64_t> var_key;
  std::vector<std::uint64_t> row_key;
};

/// An optimal basis remembered from a previous formulation, with the keys
/// needed to reinterpret it. Produced after a solve, consumed (via
/// map_basis_to) to warm-start the next one.
struct LpBasisMemo {
  std::vector<std::uint64_t> var_key;
  std::vector<std::uint64_t> row_key;
  lp::BasisSnapshot snap;
};

/// Projects a remembered basis onto formulation `to` by key identity:
/// rows keep their remembered basic variable when both the row and that
/// variable still exist, everything else falls back to logical-basic /
/// at-lower and the solver's composite phase 1 repairs the difference.
/// Keys are joined through sorted (key, index) lists; a key that repeats
/// names its first occurrence (in `to`'s variables, and among the memo's
/// rows that have a basic variable). Deterministic; never fails (worst
/// case it returns a cold basis).
lp::BasisSnapshot map_basis_to(const LpBasisMemo& memo,
                               const LpFormulation& to);

/// Builds the LP relaxation of Statement 5 with the auxiliary w variables
/// eliminated analytically (w = (V beta - r) / 2, whose [0, n/2] bounds
/// reduce to r <= V beta). This is the production formulation: it has the
/// same feasible beta/r set as Statement 5 but q*p*m fewer variables.
///
/// Objective: minimize sum of beta (prefers sparse parity trees so the
/// rounded points stay cheap).
LpFormulation build_lp(const DetectabilityTable& table,
                       std::span<const std::uint32_t> rows, int q);

/// Extracts the fractional beta block from an LP solution.
/// Result[l][j] = value of beta^{(l)}_j in [0,1].
std::vector<std::vector<double>> beta_values(const LpFormulation& f,
                                             const lp::LpResult& r);

}  // namespace ced::core
