#pragma once

// The LP solver's reference oracle. Tests link it from the ced_oracles
// library (tests/CMakeLists.txt); nothing in the library calls it.

#include <gtest/gtest.h>

#include "lp/simplex.hpp"

namespace ced::lp {

/// The dense two-phase tableau simplex with bounded variables. Agrees with
/// `solve` on feasibility and on the optimal objective; the optimal
/// *vertex* may differ on degenerate problems (either is a correct
/// optimum). Honors max_iterations, eps and deadline; ignores warm,
/// want_basis, refactor_interval and obs, and never reports phase-1 or
/// refactorization counts.
LpResult solve_dense(const LpProblem& p, const SolverOptions& opts = {});

/// The differential check of `solve` against the oracle: `revised`
/// (solve's result for p) and `dense` (solve_dense's) report the same
/// status, and at an optimum the objectives agree within 1e-6 relative and
/// the revised point keeps every bound and row of p within 1e-6.
testing::AssertionResult agrees_with_dense(const LpProblem& p,
                                           const LpResult& revised,
                                           const LpResult& dense);

/// The check of lp::CscMatrix::standard_form(p) against the dense matrix
/// solve_dense fills from p's rows, each term added in order, plus one
/// logical per row (-1 for kGe, +1 otherwise): every column's entries
/// ascend by row and are nonzero, each equals the dense cell bit for bit,
/// and no nonzero cell is missing.
testing::AssertionResult standard_form_matches_dense(const LpProblem& p);

}  // namespace ced::lp
