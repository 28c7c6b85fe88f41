#include "logic/opt.hpp"

#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "logic/factor.hpp"
#include "logic/minimize.hpp"
#include "logic/synth.hpp"
#include "logic/truth_table.hpp"

namespace ced::logic {
namespace {

/// Builds a random messy netlist (with constants, buffers, duplicate
/// fan-ins and dead logic) for equivalence checking.
Netlist random_netlist(std::uint64_t seed, int inputs, int gates) {
  ced::core::Rng rng(seed);
  Netlist n;
  std::vector<std::uint32_t> nets;
  for (int i = 0; i < inputs; ++i) nets.push_back(n.add_input("i"));
  nets.push_back(n.add_const(false));
  nets.push_back(n.add_const(true));
  for (int g = 0; g < gates; ++g) {
    const GateType t = static_cast<GateType>(3 + rng.next() % 8);
    const int fanin = (t == GateType::kBuf || t == GateType::kNot)
                          ? 1
                          : 1 + static_cast<int>(rng.next() % 4);
    std::vector<std::uint32_t> fi;
    for (int k = 0; k < fanin; ++k) fi.push_back(nets[rng.next() % nets.size()]);
    nets.push_back(n.add_gate(t, fi));
  }
  // A few outputs picked from the tail; earlier gates may be dead.
  for (int o = 0; o < 3; ++o) {
    n.mark_output(nets[nets.size() - 1 - static_cast<std::size_t>(o) * 3],
                  "o" + std::to_string(o));
  }
  return n;
}

void expect_equivalent(const Netlist& a, const Netlist& b) {
  ASSERT_EQ(a.num_inputs(), b.num_inputs());
  ASSERT_EQ(a.num_outputs(), b.num_outputs());
  const std::uint64_t space = std::uint64_t{1} << a.num_inputs();
  for (std::uint64_t v = 0; v < space; ++v) {
    ASSERT_EQ(a.eval_single(v), b.eval_single(v)) << "assignment " << v;
  }
}

class OptimizeEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OptimizeEquivalence, PreservesAllOutputs) {
  const Netlist n = random_netlist(GetParam(), 6, 60);
  OptimizeStats stats;
  const Netlist opt = optimize_netlist(n, &stats);
  expect_equivalent(n, opt);
  EXPECT_LE(opt.gate_count(), n.gate_count());
  EXPECT_EQ(stats.gates_before, n.gate_count());
  EXPECT_EQ(stats.gates_after, opt.gate_count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizeEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15, 16));

TEST(Optimize, FoldsDominatingConstants) {
  Netlist n;
  const auto a = n.add_input("a");
  const auto zero = n.add_const(false);
  const auto one = n.add_const(true);
  n.mark_output(n.add_gate(GateType::kAnd, {a, zero}), "and0");
  n.mark_output(n.add_gate(GateType::kOr, {a, one}), "or1");
  n.mark_output(n.add_gate(GateType::kAnd, {a, one}), "and1");
  const Netlist opt = optimize_netlist(n);
  EXPECT_EQ(opt.gate_count(), 0u);
  expect_equivalent(n, opt);
}

TEST(Optimize, CancelsComplementaryFanins) {
  Netlist n;
  const auto a = n.add_input("a");
  const auto na = n.add_gate(GateType::kNot, {a});
  n.mark_output(n.add_gate(GateType::kAnd, {a, na}), "zero");
  n.mark_output(n.add_gate(GateType::kOr, {a, na}), "one");
  n.mark_output(n.add_gate(GateType::kXor, {a, a}), "xzero");
  const Netlist opt = optimize_netlist(n);
  EXPECT_EQ(opt.gate_count(), 0u);
  expect_equivalent(n, opt);
}

TEST(Optimize, CollapsesDoubleInverters) {
  Netlist n;
  const auto a = n.add_input("a");
  const auto n1 = n.add_gate(GateType::kNot, {a});
  const auto n2 = n.add_gate(GateType::kNot, {n1});
  n.mark_output(n2, "a_again");
  const Netlist opt = optimize_netlist(n);
  EXPECT_EQ(opt.gate_count(), 0u);
  expect_equivalent(n, opt);
}

TEST(Optimize, MergesStructuralDuplicates) {
  Netlist n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto g1 = n.add_gate(GateType::kAnd, {a, b});
  const auto g2 = n.add_gate(GateType::kAnd, {b, a});  // same gate, reordered
  n.mark_output(n.add_gate(GateType::kXor, {g1, g2}), "zero");
  OptimizeStats stats;
  const Netlist opt = optimize_netlist(n, &stats);
  expect_equivalent(n, opt);
  // XOR of two identical signals folds to constant 0.
  EXPECT_EQ(opt.gate_count(), 0u);
}

TEST(Optimize, SweepsDeadLogic) {
  Netlist n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  n.add_gate(GateType::kAnd, {a, b});  // dead
  n.add_gate(GateType::kOr, {a, b});   // dead
  const auto live = n.add_gate(GateType::kXor, {a, b});
  n.mark_output(live, "f");
  OptimizeStats stats;
  const Netlist opt = optimize_netlist(n, &stats);
  EXPECT_EQ(opt.gate_count(), 1u);
  EXPECT_EQ(stats.swept, 2u);
  expect_equivalent(n, opt);
}

TEST(Optimize, KeepsInterfaceNamesAndOrder) {
  Netlist n;
  n.add_input("alpha");
  const auto b = n.add_input("beta");
  n.mark_output(b, "out_beta");
  const Netlist opt = optimize_netlist(n);
  ASSERT_EQ(opt.num_inputs(), 2u);
  EXPECT_EQ(opt.input_name(0), "alpha");
  EXPECT_EQ(opt.input_name(1), "beta");
  ASSERT_EQ(opt.num_outputs(), 1u);
  EXPECT_EQ(opt.output_name(0), "out_beta");
}

// ---- Factoring.

/// Number of literal leaves of a factored form (the standard multilevel
/// cost estimate).
int factor_literal_count(const FactorNode& node) {
  switch (node.kind) {
    case FactorNode::Kind::kConst:
      return 0;
    case FactorNode::Kind::kLiteral:
      return 1;
    default: {
      int n = 0;
      for (const auto& c : node.children) n += factor_literal_count(c);
      return n;
    }
  }
}

/// Evaluates the factored form on a complete assignment.
bool factor_evaluate(const FactorNode& node, std::uint64_t assignment) {
  switch (node.kind) {
    case FactorNode::Kind::kConst:
      return node.value;
    case FactorNode::Kind::kLiteral:
      return (((assignment >> node.var) & 1) != 0) == node.positive;
    case FactorNode::Kind::kAnd:
      for (const auto& c : node.children) {
        if (!factor_evaluate(c, assignment)) return false;
      }
      return true;
    case FactorNode::Kind::kOr:
      for (const auto& c : node.children) {
        if (factor_evaluate(c, assignment)) return true;
      }
      return false;
  }
  return false;
}

SopSpec random_spec(int vars, double density, std::uint64_t seed) {
  SopSpec s(vars);
  ced::core::Rng rng(seed);
  for (std::size_t m = 0; m < s.on.size(); ++m) {
    if (rng.uniform() < density) s.on.set(m);
  }
  return s;
}

class FactorEquivalence
    : public ::testing::TestWithParam<std::tuple<int, double, std::uint64_t>> {
};

TEST_P(FactorEquivalence, FactoredFormComputesTheCover) {
  const auto [vars, density, seed] = GetParam();
  const SopSpec spec = random_spec(vars, density, seed);
  const Cover cover = minimize_espresso(spec);
  const FactorNode f = factor_cover(cover);
  for (std::uint64_t a = 0; a < (std::uint64_t{1} << vars); ++a) {
    EXPECT_EQ(factor_evaluate(f, a), cover.evaluate(a)) << a;
  }
  // Factoring never increases the literal count.
  EXPECT_LE(factor_literal_count(f), cover.num_literals());
}

TEST_P(FactorEquivalence, SynthesizedFactorMatches) {
  const auto [vars, density, seed] = GetParam();
  const SopSpec spec = random_spec(vars, density, seed);
  const Cover cover = minimize_espresso(spec);
  Netlist n;
  std::vector<std::uint32_t> var_nets;
  for (int i = 0; i < vars; ++i) var_nets.push_back(n.add_input("x"));
  SynthContext ctx(n);
  n.mark_output(synthesize_factor(ctx, factor_cover(cover), var_nets), "f");
  for (std::uint64_t a = 0; a < (std::uint64_t{1} << vars); ++a) {
    EXPECT_EQ(n.eval_single(a) & 1,
              static_cast<std::uint64_t>(cover.evaluate(a)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FactorEquivalence,
    ::testing::Values(std::make_tuple(3, 0.4, 21ull),
                      std::make_tuple(4, 0.3, 22ull),
                      std::make_tuple(5, 0.5, 23ull),
                      std::make_tuple(6, 0.2, 24ull),
                      std::make_tuple(6, 0.6, 25ull),
                      std::make_tuple(7, 0.35, 26ull),
                      std::make_tuple(8, 0.25, 27ull),
                      std::make_tuple(8, 0.5, 28ull)));

TEST(Factor, ConstantsAndSingles) {
  Cover empty(3);
  EXPECT_EQ(factor_cover(empty).kind, FactorNode::Kind::kConst);
  EXPECT_FALSE(factor_cover(empty).value);

  Cover taut(3);
  taut.add(Cube::universe());
  EXPECT_TRUE(factor_cover(taut).value);

  Cover lit(3);
  lit.add(Cube::universe().with_literal(1, false));
  const FactorNode f = factor_cover(lit);
  EXPECT_EQ(f.kind, FactorNode::Kind::kLiteral);
  EXPECT_EQ(f.var, 1);
  EXPECT_FALSE(f.positive);
}

TEST(Factor, ExtractsCommonCube) {
  // ab + ac = a(b + c): 3 literal leaves instead of 4.
  Cover c(3);
  c.add(Cube::universe().with_literal(0, true).with_literal(1, true));
  c.add(Cube::universe().with_literal(0, true).with_literal(2, true));
  const FactorNode f = factor_cover(c);
  EXPECT_EQ(factor_literal_count(f), 3);
}

}  // namespace
}  // namespace ced::logic
