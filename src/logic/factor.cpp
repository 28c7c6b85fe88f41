#include "logic/factor.hpp"

#include <algorithm>
#include <array>
#include <bit>

namespace ced::logic {
namespace {

/// Largest cube contained in every cube of the list (common literals).
Cube common_cube(const std::vector<Cube>& cubes) {
  Cube common = cubes.front();
  for (std::size_t i = 1; i < cubes.size(); ++i) {
    // Keep literals present in both with equal polarity.
    const std::uint64_t both = common.care & cubes[i].care;
    const std::uint64_t agree = ~(common.val ^ cubes[i].val);
    common.care = both & agree;
    common.val &= common.care;
  }
  return common;
}

/// Removes the literals of `divisor` from `c` (assumes divisor covers
/// a subset of c's literals).
Cube divide_out(const Cube& c, const Cube& divisor) {
  Cube r = c;
  r.care &= ~divisor.care;
  r.val &= r.care;
  return r;
}

FactorNode and_of(std::vector<FactorNode> children) {
  if (children.size() == 1) return std::move(children.front());
  FactorNode n;
  n.kind = FactorNode::Kind::kAnd;
  n.children = std::move(children);
  return n;
}

FactorNode or_of(std::vector<FactorNode> children) {
  if (children.size() == 1) return std::move(children.front());
  FactorNode n;
  n.kind = FactorNode::Kind::kOr;
  n.children = std::move(children);
  return n;
}

FactorNode cube_to_and(const Cube& c, int num_vars) {
  std::vector<FactorNode> lits;
  for (int v = 0; v < num_vars; ++v) {
    const std::uint64_t m = std::uint64_t{1} << v;
    if (c.care & m) {
      lits.push_back(FactorNode::literal(v, (c.val & m) != 0));
    }
  }
  if (lits.empty()) return FactorNode::constant(true);
  return and_of(std::move(lits));
}

FactorNode factor_rec(std::vector<Cube> cubes, int num_vars) {
  if (cubes.empty()) return FactorNode::constant(false);
  for (const Cube& c : cubes) {
    if (c.care == 0) return FactorNode::constant(true);  // tautology cube
  }
  if (cubes.size() == 1) return cube_to_and(cubes.front(), num_vars);

  // 1) Common-cube extraction: F = c * (F / c).
  const Cube common = common_cube(cubes);
  if (common.care != 0) {
    std::vector<Cube> quotient;
    quotient.reserve(cubes.size());
    for (const Cube& c : cubes) quotient.push_back(divide_out(c, common));
    std::vector<FactorNode> parts;
    parts.push_back(cube_to_and(common, num_vars));
    parts.push_back(factor_rec(std::move(quotient), num_vars));
    return and_of(std::move(parts));
  }

  // 2) Divide by the most frequent literal: F = L * (F/L) + R. Ties go to
  // the smallest key.
  std::array<int, 128> freq{};  // key: var*2 + polarity
  for (const Cube& c : cubes) {
    for (std::uint64_t care = c.care; care != 0; care &= care - 1) {
      const int v = std::countr_zero(care);
      ++freq[static_cast<std::size_t>(v) * 2 + ((c.val >> v) & 1)];
    }
  }
  std::uint64_t best_key = 0;
  int best = 0;
  for (std::size_t key = 0; key < 2 * static_cast<std::size_t>(num_vars);
       ++key) {
    if (freq[key] > best) {
      best = freq[key];
      best_key = key;
    }
  }
  if (best < 2) {
    // No sharing left: plain OR of cube ANDs.
    std::vector<FactorNode> terms;
    terms.reserve(cubes.size());
    for (const Cube& c : cubes) terms.push_back(cube_to_and(c, num_vars));
    return or_of(std::move(terms));
  }

  const int var = static_cast<int>(best_key / 2);
  const bool pol = best_key % 2 != 0;
  const Cube lit = Cube::universe().with_literal(var, pol);
  std::vector<Cube> quotient, remainder;
  for (const Cube& c : cubes) {
    const std::uint64_t m = std::uint64_t{1} << var;
    if ((c.care & m) && ((c.val & m) != 0) == pol) {
      quotient.push_back(divide_out(c, lit));
    } else {
      remainder.push_back(c);
    }
  }
  std::vector<FactorNode> product;
  product.push_back(FactorNode::literal(var, pol));
  product.push_back(factor_rec(std::move(quotient), num_vars));
  FactorNode left = and_of(std::move(product));
  if (remainder.empty()) return left;
  std::vector<FactorNode> sum;
  sum.push_back(std::move(left));
  sum.push_back(factor_rec(std::move(remainder), num_vars));
  return or_of(std::move(sum));
}

}  // namespace

FactorNode factor_cover(const Cover& cover) {
  return factor_rec(cover.cubes(), cover.num_vars());
}

std::uint32_t synthesize_factor(SynthContext& ctx, const FactorNode& node,
                                std::span<const std::uint32_t> var_nets) {
  switch (node.kind) {
    case FactorNode::Kind::kConst:
      return ctx.constant(node.value);
    case FactorNode::Kind::kLiteral:
      return node.positive
                 ? var_nets[static_cast<std::size_t>(node.var)]
                 : ctx.inverted(var_nets[static_cast<std::size_t>(node.var)]);
    case FactorNode::Kind::kAnd:
    case FactorNode::Kind::kOr: {
      // Flatten same-kind descendants so the mapper can use wide cells
      // instead of chains of 2-input gates.
      std::vector<std::uint32_t> nets;
      std::vector<const FactorNode*> stack{&node};
      while (!stack.empty()) {
        const FactorNode* cur = stack.back();
        stack.pop_back();
        for (const auto& c : cur->children) {
          if (c.kind == node.kind) {
            stack.push_back(&c);
          } else {
            nets.push_back(synthesize_factor(ctx, c, var_nets));
          }
        }
      }
      return node.kind == FactorNode::Kind::kAnd ? ctx.and_tree(std::move(nets))
                                                 : ctx.or_tree(std::move(nets));
    }
  }
  return ctx.constant(false);
}

}  // namespace ced::logic
