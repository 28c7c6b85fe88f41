#pragma once

// The parity-selection reference oracle: the exhaustive branch-and-bound
// optimum that Algorithm 1 and the greedy solver are compared against on
// small tables. Tests and bench_solver_quality (the optimum column of the
// §4 "Algorithm quality" experiment) link it from the ced_oracles library
// (tests/CMakeLists.txt); nothing in the library calls it.

#include <optional>
#include <vector>

#include "core/parity.hpp"
#include "core/resilience.hpp"

namespace ced::core {

struct ExactOptions {
  /// Refuse instances with more observable bits than this (the candidate
  /// space is 2^n - 1 parity functions and dominance pruning is quadratic
  /// in it).
  int max_bits = 14;
  /// Branch-and-bound node budget; nullopt result when exhausted.
  std::size_t max_nodes = 50'000'000;
  /// Wall-clock budget for the search; on expiry the solve aborts with
  /// `deadline_hit`.
  Deadline deadline;
};

/// Why an exact solve returned nullopt (all false on success).
struct ExactOutcome {
  bool too_large = false;      ///< instance exceeded max_bits
  bool node_budget_hit = false;
  bool deadline_hit = false;
  bool uncoverable = false;    ///< some case no candidate covers
  std::size_t nodes = 0;       ///< branch-and-bound nodes explored
};

/// Exact minimum number of parity functions (optimal Statement-1 solution)
/// by exhaustive candidate enumeration + dominance pruning + branch and
/// bound set cover. Intended for small instances: validates the LP
/// rounding and greedy solvers in tests and in the solver-quality bench.
///
/// Returns nullopt when the instance exceeds the option limits.
std::optional<std::vector<ParityFunc>> exact_min_cover(
    const DetectabilityTable& table, const ExactOptions& opts = {},
    ExactOutcome* outcome = nullptr);

}  // namespace ced::core
