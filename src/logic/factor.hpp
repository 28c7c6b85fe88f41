#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "logic/cover.hpp"
#include "logic/synth.hpp"

namespace ced::logic {

/// A factored Boolean expression: literals combined by AND/OR nodes.
/// Produced by algebraic (SIS-style "quick") factoring of a two-level
/// cover; synthesizing the tree yields multilevel logic that is usually
/// much smaller than the flat SOP.
struct FactorNode {
  enum class Kind { kConst, kLiteral, kAnd, kOr };

  Kind kind = Kind::kConst;
  bool value = false;    ///< kConst
  int var = 0;           ///< kLiteral
  bool positive = true;  ///< kLiteral
  std::vector<FactorNode> children;  ///< kAnd / kOr

  static FactorNode constant(bool v) {
    FactorNode n;
    n.kind = Kind::kConst;
    n.value = v;
    return n;
  }
  static FactorNode literal(int var, bool positive) {
    FactorNode n;
    n.kind = Kind::kLiteral;
    n.var = var;
    n.positive = positive;
    return n;
  }
};

/// Factors a cover by recursive common-cube extraction and division by the
/// most frequent literal (the classic "quick factor" recipe). The result
/// computes exactly the same function as the SOP.
FactorNode factor_cover(const Cover& cover);

/// Synthesizes the factored form onto a netlist; `var_nets[i]` carries
/// variable i. Returns the output net.
std::uint32_t synthesize_factor(SynthContext& ctx, const FactorNode& node,
                                std::span<const std::uint32_t> var_nets);

}  // namespace ced::logic
