#include "logic/netlist.hpp"

#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "logic/area.hpp"
#include "logic/minimize.hpp"
#include "logic/synth.hpp"
#include "logic/truth_table.hpp"

namespace ced::logic {
namespace {

TEST(Netlist, BasicGateEval) {
  Netlist n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto g_and = n.add_gate(GateType::kAnd, {a, b});
  const auto g_or = n.add_gate(GateType::kOr, {a, b});
  const auto g_xor = n.add_gate(GateType::kXor, {a, b});
  const auto g_not = n.add_gate(GateType::kNot, {a});
  n.mark_output(g_and, "and");
  n.mark_output(g_or, "or");
  n.mark_output(g_xor, "xor");
  n.mark_output(g_not, "not");

  for (std::uint64_t v = 0; v < 4; ++v) {
    const std::uint64_t out = n.eval_single(v);
    const bool av = v & 1, bv = v & 2;
    EXPECT_EQ((out >> 0) & 1, static_cast<std::uint64_t>(av && bv));
    EXPECT_EQ((out >> 1) & 1, static_cast<std::uint64_t>(av || bv));
    EXPECT_EQ((out >> 2) & 1, static_cast<std::uint64_t>(av != bv));
    EXPECT_EQ((out >> 3) & 1, static_cast<std::uint64_t>(!av));
  }
}

TEST(Netlist, NandNorXnorConst) {
  Netlist n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  n.mark_output(n.add_gate(GateType::kNand, {a, b}), "nand");
  n.mark_output(n.add_gate(GateType::kNor, {a, b}), "nor");
  n.mark_output(n.add_gate(GateType::kXnor, {a, b}), "xnor");
  n.mark_output(n.add_const(true), "one");
  n.mark_output(n.add_const(false), "zero");
  for (std::uint64_t v = 0; v < 4; ++v) {
    const std::uint64_t out = n.eval_single(v);
    const bool av = v & 1, bv = v & 2;
    EXPECT_EQ((out >> 0) & 1, static_cast<std::uint64_t>(!(av && bv)));
    EXPECT_EQ((out >> 1) & 1, static_cast<std::uint64_t>(!(av || bv)));
    EXPECT_EQ((out >> 2) & 1, static_cast<std::uint64_t>(av == bv));
    EXPECT_EQ((out >> 3) & 1, 1u);
    EXPECT_EQ((out >> 4) & 1, 0u);
  }
}

TEST(Netlist, TopologicalOrderEnforced) {
  Netlist n;
  const auto a = n.add_input("a");
  EXPECT_THROW(n.add_gate(GateType::kAnd, {a, 99}), std::invalid_argument);
  EXPECT_THROW(n.add_gate(GateType::kNot, {a, a}), std::invalid_argument);
  EXPECT_THROW(n.add_gate(GateType::kAnd, {}), std::invalid_argument);
}

TEST(Netlist, InjectionForcesNet) {
  Netlist n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto g = n.add_gate(GateType::kAnd, {a, b});
  n.mark_output(g, "f");
  const Injection sa1{g, ~std::uint64_t{0}};
  const Injection sa0{g, 0};
  EXPECT_EQ(n.eval_single(0b00, &sa1), 1u);
  EXPECT_EQ(n.eval_single(0b11, &sa0), 0u);
  // Injection on an input net propagates through fanout.
  const Injection a1{a, ~std::uint64_t{0}};
  EXPECT_EQ(n.eval_single(0b10, &a1), 1u);
}

TEST(Netlist, ParallelPatternsMatchSingle) {
  // Random netlist evaluated 64 patterns at a time must agree with
  // pattern-at-a-time evaluation.
  ced::core::Rng rng(42);
  Netlist n;
  std::vector<std::uint32_t> nets;
  for (int i = 0; i < 6; ++i) nets.push_back(n.add_input("i"));
  for (int g = 0; g < 40; ++g) {
    const GateType t = static_cast<GateType>(
        3 + rng.next() % 8);  // kBuf..kXnor
    const int fanin = (t == GateType::kBuf || t == GateType::kNot)
                          ? 1
                          : 2 + static_cast<int>(rng.next() % 3);
    std::vector<std::uint32_t> fi;
    for (int k = 0; k < fanin; ++k) {
      fi.push_back(nets[rng.next() % nets.size()]);
    }
    nets.push_back(n.add_gate(t, fi));
  }
  n.mark_output(nets.back(), "f");
  n.mark_output(nets[nets.size() / 2], "g");

  std::vector<std::uint64_t> words(6), values;
  for (int i = 0; i < 6; ++i) {
    // Bit t of word i = bit i of pattern index t.
    std::uint64_t w = 0;
    for (int t = 0; t < 64; ++t) {
      w |= ((static_cast<std::uint64_t>(t) >> i) & 1) << t;
    }
    words[static_cast<std::size_t>(i)] = w;
  }
  n.eval(words, values);
  for (std::uint64_t t = 0; t < 64; ++t) {
    const std::uint64_t single = n.eval_single(t);
    EXPECT_EQ((values[n.outputs()[0]] >> t) & 1, single & 1) << t;
    EXPECT_EQ((values[n.outputs()[1]] >> t) & 1, (single >> 1) & 1) << t;
  }
}

TEST(Synth, SopMatchesCoverSemantics) {
  // Synthesize a random minimized function and check netlist == spec.
  ced::core::Rng rng(7);
  for (int trial = 0; trial < 12; ++trial) {
    const int vars = 3 + static_cast<int>(rng.next() % 4);
    SopSpec s(vars);
    for (std::size_t m = 0; m < s.on.size(); ++m) {
      if (rng.uniform() < 0.4) s.on.set(m);
    }
    const Cover cover = minimize_espresso(s);

    Netlist n;
    std::vector<std::uint32_t> var_nets;
    for (int i = 0; i < vars; ++i) var_nets.push_back(n.add_input("x"));
    SynthContext ctx(n);
    n.mark_output(ctx.sop(cover, var_nets), "f");

    for (std::uint64_t a = 0; a < (std::uint64_t{1} << vars); ++a) {
      EXPECT_EQ(n.eval_single(a) & 1,
                static_cast<std::uint64_t>(cover.evaluate(a)))
          << "trial " << trial << " assignment " << a;
    }
  }
}

TEST(Synth, XorTreeParity) {
  Netlist n;
  std::vector<std::uint32_t> ins;
  for (int i = 0; i < 9; ++i) ins.push_back(n.add_input("x"));
  SynthContext ctx(n);
  n.mark_output(ctx.xor_tree(ins), "p");
  for (std::uint64_t a = 0; a < 512; a += 37) {
    EXPECT_EQ(n.eval_single(a) & 1,
              static_cast<std::uint64_t>(std::popcount(a & 0x1ff) & 1));
  }
}

TEST(Synth, TreesRespectMaxFanin) {
  Netlist n;
  std::vector<std::uint32_t> ins;
  for (int i = 0; i < 17; ++i) ins.push_back(n.add_input("x"));
  SynthContext ctx(n);
  ctx.and_tree(ins);
  for (std::uint32_t id = 0; id < n.num_nets(); ++id) {
    EXPECT_LE(n.gate(id).fanins.size(), static_cast<std::size_t>(kMaxFanin));
  }
}

TEST(Synth, EmptyTreesAreIdentityConstants) {
  Netlist n;
  SynthContext ctx(n);
  const auto and0 = ctx.and_tree({});
  const auto or0 = ctx.or_tree({});
  const auto xor0 = ctx.xor_tree({});
  n.mark_output(and0, "a");
  n.mark_output(or0, "o");
  n.mark_output(xor0, "x");
  const std::uint64_t out = n.eval_single(0);
  EXPECT_EQ(out & 1, 1u);
  EXPECT_EQ((out >> 1) & 1, 0u);
  EXPECT_EQ((out >> 2) & 1, 0u);
}

TEST(Synth, InverterSharing) {
  Netlist n;
  const auto a = n.add_input("a");
  SynthContext ctx(n);
  const auto i1 = ctx.inverted(a);
  const auto i2 = ctx.inverted(a);
  EXPECT_EQ(i1, i2);
}

TEST(Synth, ComparatorDetectsAnyDifference) {
  Netlist n;
  std::vector<std::uint32_t> a, b;
  for (int i = 0; i < 4; ++i) a.push_back(n.add_input("a"));
  for (int i = 0; i < 4; ++i) b.push_back(n.add_input("b"));
  SynthContext ctx(n);
  n.mark_output(ctx.comparator(a, b), "err");
  for (std::uint64_t x = 0; x < 16; ++x) {
    for (std::uint64_t y = 0; y < 16; ++y) {
      EXPECT_EQ(n.eval_single(x | (y << 4)) & 1,
                static_cast<std::uint64_t>(x != y));
    }
  }
}

TEST(Area, GateCountExcludesBufsAndConsts) {
  Netlist n;
  const auto a = n.add_input("a");
  n.add_const(true);
  const auto buf = n.add_gate(GateType::kBuf, {a});
  n.add_gate(GateType::kNot, {buf});
  EXPECT_EQ(n.gate_count(), 1u);
}

TEST(Area, MeasureAreaSumsLibraryCells) {
  Netlist n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  n.add_gate(GateType::kAnd, {a, b});
  n.add_gate(GateType::kNot, {a});
  const CellLibrary& lib = CellLibrary::mcnc();
  const AreaReport r = measure_area(n, lib, 2);
  EXPECT_EQ(r.gates, 2u);
  EXPECT_DOUBLE_EQ(r.area, lib.and2 + lib.inv + 2 * lib.dff);
}

TEST(Area, WideGateCostsMoreThanPair) {
  const CellLibrary& lib = CellLibrary::mcnc();
  EXPECT_GT(lib.gate_area(GateType::kAnd, 4),
            lib.gate_area(GateType::kAnd, 2));
  EXPECT_THROW(lib.gate_area(GateType::kAnd, 5), std::invalid_argument);
}

}  // namespace
}  // namespace ced::logic
