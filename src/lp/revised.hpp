#pragma once

// Internal entry point of the sparse revised simplex (see revised.cpp).
// Callers go through lp::solve, which adds the observability wrapper and
// the debug-build cross-check against lp::solve_dense.

#include "lp/simplex.hpp"

namespace ced::lp {

/// Bounded-variable revised primal simplex over CSC columns. Deterministic.
/// Honors SolverOptions::warm / want_basis / refactor_interval; statuses
/// and tolerances match solve_dense.
LpResult revised_solve(const LpProblem& p, const SolverOptions& opts);

}  // namespace ced::lp
