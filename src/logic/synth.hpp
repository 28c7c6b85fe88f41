#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "logic/cover.hpp"
#include "logic/netlist.hpp"

namespace ced::logic {

/// Incremental builder of gate structures on a netlist with literal sharing.
///
/// Inverters and constants are cached so multiple SOP outputs synthesized
/// through the same context share complemented literals, as a multi-output
/// two-level mapper would. Gate trees are at most kMaxFanin wide.
class SynthContext {
 public:
  explicit SynthContext(Netlist& nl) : nl_(nl) {}

  /// Shared constant net.
  std::uint32_t constant(bool v);
  /// Shared inverter of `net`.
  std::uint32_t inverted(std::uint32_t net);

  /// Fan-in-bounded balanced gate trees. Empty input yields the tree's
  /// identity element (AND -> 1, OR/XOR -> 0); single input passes through.
  std::uint32_t and_tree(std::vector<std::uint32_t> nets);
  std::uint32_t or_tree(std::vector<std::uint32_t> nets);
  std::uint32_t xor_tree(std::vector<std::uint32_t> nets);

  /// Synthesizes a two-level SOP: `var_nets[i]` is the net carrying cube
  /// variable i. Returns the output net.
  std::uint32_t sop(const Cover& cover,
                    std::span<const std::uint32_t> var_nets);

  /// Inequality comparator: OR of bitwise XOR of two equal-length buses.
  /// Output is 1 iff the buses differ.
  std::uint32_t comparator(std::span<const std::uint32_t> a,
                           std::span<const std::uint32_t> b);

 private:
  std::uint32_t tree(GateType type, std::vector<std::uint32_t> nets,
                     bool empty_value);

  Netlist& nl_;
  std::unordered_map<std::uint32_t, std::uint32_t> inverter_cache_;
  std::int64_t const_net_[2] = {-1, -1};
};

}  // namespace ced::logic
