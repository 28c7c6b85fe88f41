#pragma once

#include "logic/cover.hpp"
#include "logic/truth_table.hpp"

namespace ced::logic {

/// Heuristic two-level (SOP) minimization in the spirit of ESPRESSO:
/// EXPAND each ON minterm against the OFF-set, skip minterms already
/// covered, then IRREDUNDANT and one REDUCE/EXPAND/IRREDUNDANT
/// refinement, kept only when it shrinks the cover.
///
/// The result always implements `spec` exactly (covers ON, avoids OFF);
/// don't-cares are exploited during expansion. Deterministic.
Cover minimize_espresso(const SopSpec& spec);

}  // namespace ced::logic
