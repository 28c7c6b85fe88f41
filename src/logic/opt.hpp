#pragma once

#include "logic/netlist.hpp"

namespace ced::logic {

/// Statistics of one optimization run.
struct OptimizeStats {
  std::size_t gates_before = 0;
  std::size_t gates_after = 0;
  std::size_t folded = 0;   ///< gates removed by constant folding / unary
  std::size_t merged = 0;   ///< gates merged by structural hashing
  std::size_t swept = 0;    ///< gates removed as dead
};

/// Rewrites `n` into an equivalent, usually smaller netlist:
/// primary inputs and outputs keep their order and names; for every input
/// assignment the outputs are bit-identical (tests enforce this).
///
/// Passes: constant folding (AND with 0, OR with 1, XOR of equal nets, ...),
/// duplicate-fan-in simplification, buffer/double-inverter collapsing,
/// structural hashing (one gate per (type, fan-in multiset)), and a final
/// dead-logic sweep.
Netlist optimize_netlist(const Netlist& n, OptimizeStats* stats = nullptr);

}  // namespace ced::logic
