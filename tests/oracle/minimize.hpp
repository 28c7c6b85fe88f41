#pragma once

// The two-level minimizer's reference oracles: the exact Quine-McCluskey
// minimizer and the cover check every minimizer test uses. Tests link them
// from the ced_oracles library (tests/CMakeLists.txt); nothing in the
// library calls them.

#include "logic/cover.hpp"
#include "logic/truth_table.hpp"

namespace ced::logic {

/// Exact two-level minimization (Quine-McCluskey prime generation followed
/// by branch-and-bound minimum cover). Guards `spec.num_vars <= 14`;
/// intended for small functions and for validating the heuristic.
Cover minimize_exact(const SopSpec& spec);

/// True if `cover` is a valid implementation of `spec`:
/// it covers every ON minterm and touches no OFF minterm.
bool cover_implements(const Cover& cover, const SopSpec& spec);

}  // namespace ced::logic
