#include "logic/synth.hpp"

#include <algorithm>
#include <stdexcept>

namespace ced::logic {

std::uint32_t SynthContext::constant(bool v) {
  const int idx = v ? 1 : 0;
  if (const_net_[idx] < 0) {
    const_net_[idx] = static_cast<std::int64_t>(nl_.add_const(v));
  }
  return static_cast<std::uint32_t>(const_net_[idx]);
}

std::uint32_t SynthContext::inverted(std::uint32_t net) {
  auto it = inverter_cache_.find(net);
  if (it != inverter_cache_.end()) return it->second;
  const std::uint32_t inv = nl_.add_gate(GateType::kNot, {net});
  inverter_cache_.emplace(net, inv);
  return inv;
}

std::uint32_t SynthContext::tree(GateType type,
                                 std::vector<std::uint32_t> nets,
                                 bool empty_value) {
  if (nets.empty()) return constant(empty_value);
  // A FIFO kept in `nets` from `head` on: each gate takes up to kMaxFanin
  // nets from the front and appends its output at the back.
  std::size_t head = 0;
  while (nets.size() - head > 1) {
    const std::size_t take =
        std::min(nets.size() - head, static_cast<std::size_t>(kMaxFanin));
    const auto first = nets.begin() + static_cast<std::ptrdiff_t>(head);
    std::vector<std::uint32_t> group(
        first, first + static_cast<std::ptrdiff_t>(take));
    head += take;
    nets.push_back(nl_.add_gate(type, std::move(group)));
  }
  return nets[head];
}

std::uint32_t SynthContext::and_tree(std::vector<std::uint32_t> nets) {
  return tree(GateType::kAnd, std::move(nets), true);
}

std::uint32_t SynthContext::or_tree(std::vector<std::uint32_t> nets) {
  return tree(GateType::kOr, std::move(nets), false);
}

std::uint32_t SynthContext::xor_tree(std::vector<std::uint32_t> nets) {
  return tree(GateType::kXor, std::move(nets), false);
}

std::uint32_t SynthContext::sop(const Cover& cover,
                                std::span<const std::uint32_t> var_nets) {
  if (cover.num_vars() > static_cast<int>(var_nets.size())) {
    throw std::invalid_argument("sop: not enough variable nets");
  }
  std::vector<std::uint32_t> products;
  products.reserve(cover.size());
  for (const auto& cube : cover.cubes()) {
    std::vector<std::uint32_t> lits;
    for (int v = 0; v < cover.num_vars(); ++v) {
      const std::uint64_t m = std::uint64_t{1} << v;
      if (!(cube.care & m)) continue;
      lits.push_back((cube.val & m) ? var_nets[v] : inverted(var_nets[v]));
    }
    products.push_back(and_tree(std::move(lits)));
  }
  return or_tree(std::move(products));
}

std::uint32_t SynthContext::comparator(std::span<const std::uint32_t> a,
                                       std::span<const std::uint32_t> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("comparator: bus width mismatch");
  }
  std::vector<std::uint32_t> diffs;
  diffs.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    diffs.push_back(nl_.add_gate(GateType::kXor, {a[i], b[i]}));
  }
  return or_tree(std::move(diffs));
}

}  // namespace ced::logic
