#include "logic/minimize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "logic/truth_table.hpp"
#include "oracle/minimize.hpp"

namespace ced::logic {
namespace {

// ---- Reference: the minterm-at-a-time minimizer that the word-parallel
// one in src/logic/minimize.cpp replaced. It visits one minterm per step
// and re-scans EXPAND until no literal drops; the library must return the
// same cubes in the same order (see EspressoOracle below).
namespace reference {

bool disjoint_from(const Cube& c, int num_vars, const BitVec& off) {
  bool hit = false;
  for_each_minterm(c, num_vars, [&](std::uint64_t m) {
    if (off.test(m)) hit = true;
  });
  return !hit;
}

Cube expand_cube(Cube c, int num_vars, const BitVec& off) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (int v = 0; v < num_vars; ++v) {
      const std::uint64_t m = std::uint64_t{1} << v;
      if (!(c.care & m)) continue;
      const Cube wider = c.without_literal(v);
      if (disjoint_from(wider, num_vars, off)) {
        c = wider;
        changed = true;
      }
    }
  }
  return c;
}

void irredundant(Cover& cover, const SopSpec& spec) {
  auto& cubes = cover.cubes();
  std::vector<std::size_t> order(cubes.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return cubes[a].num_literals() > cubes[b].num_literals();
  });
  std::vector<bool> removed(cubes.size(), false);
  for (std::size_t oi : order) {
    bool needed = false;
    for_each_minterm(cubes[oi], spec.num_vars, [&](std::uint64_t m) {
      if (needed || !spec.on.test(m)) return;
      for (std::size_t j = 0; j < cubes.size(); ++j) {
        if (j == oi || removed[j]) continue;
        if (cubes[j].contains(m)) return;
      }
      needed = true;
    });
    if (!needed) removed[oi] = true;
  }
  std::vector<Cube> kept;
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    if (!removed[i]) kept.push_back(cubes[i]);
  }
  cubes = std::move(kept);
}

void reduce(Cover& cover, const SopSpec& spec) {
  auto& cubes = cover.cubes();
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    std::uint64_t and_mask = ~std::uint64_t{0};
    std::uint64_t or_mask = 0;
    bool saw = false;
    for_each_minterm(cubes[i], spec.num_vars, [&](std::uint64_t m) {
      if (!spec.on.test(m)) return;
      for (std::size_t j = 0; j < cubes.size(); ++j) {
        if (j != i && cubes[j].contains(m)) return;
      }
      and_mask &= m;
      or_mask |= m;
      saw = true;
    });
    if (!saw) continue;
    const std::uint64_t var_mask = (std::uint64_t{1} << spec.num_vars) - 1;
    Cube shrunk;
    shrunk.care = ~(and_mask ^ or_mask) & var_mask;
    shrunk.val = and_mask & shrunk.care;
    cubes[i] = shrunk;
  }
}

Cover minimize_espresso(const SopSpec& spec) {
  const BitVec off = spec.off();
  Cover cover(spec.num_vars);
  BitVec covered(spec.on.size());
  for (std::size_t m = spec.on.find_first(); m < spec.on.size();
       m = spec.on.find_next(m)) {
    if (covered.test(m)) continue;
    const Cube c =
        expand_cube(Cube::minterm(m, spec.num_vars), spec.num_vars, off);
    for_each_minterm(c, spec.num_vars,
                     [&](std::uint64_t x) { covered.set(x); });
    cover.add(c);
  }
  irredundant(cover, spec);
  Cover refined = cover;
  reduce(refined, spec);
  for (auto& c : refined.cubes()) c = expand_cube(c, spec.num_vars, off);
  refined.remove_contained_cubes();
  irredundant(refined, spec);
  if (refined.size() < cover.size() ||
      (refined.size() == cover.size() &&
       refined.num_literals() < cover.num_literals())) {
    return refined;
  }
  return cover;
}

}  // namespace reference

SopSpec random_spec(int vars, double on_density, double dc_density,
                    std::uint64_t seed) {
  SopSpec s(vars);
  ced::core::Rng rng(seed);
  for (std::size_t m = 0; m < s.on.size(); ++m) {
    const double u = rng.uniform();
    if (u < on_density) {
      s.on.set(m);
    } else if (u < on_density + dc_density) {
      s.dc.set(m);
    }
  }
  return s;
}

TEST(Espresso, EmptyFunction) {
  SopSpec s(3);
  const Cover c = minimize_espresso(s);
  EXPECT_TRUE(c.empty());
  EXPECT_TRUE(cover_implements(c, s));
}

TEST(Espresso, TautologyBecomesUniverseCube) {
  SopSpec s(4);
  s.on.fill(true);
  const Cover c = minimize_espresso(s);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c.cubes()[0].num_literals(), 0);
}

TEST(Espresso, SingleMinterm) {
  SopSpec s(5);
  s.on.set(21);
  const Cover c = minimize_espresso(s);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c.cubes()[0], Cube::minterm(21, 5));
}

TEST(Espresso, UsesDontCaresToMerge) {
  // ON = {00}, DC = {01, 10, 11}: a single universe cube suffices.
  SopSpec s(2);
  s.on.set(0);
  s.dc.set(1);
  s.dc.set(2);
  s.dc.set(3);
  const Cover c = minimize_espresso(s);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c.cubes()[0].num_literals(), 0);
}

TEST(Espresso, XorNeedsTwoCubes) {
  SopSpec s(2);
  s.on.set(0b01);
  s.on.set(0b10);
  const Cover c = minimize_espresso(s);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_TRUE(cover_implements(c, s));
}

TEST(Exact, MatchesKnownOptimum) {
  // f = a'b' + ab on 2 vars (XNOR): exactly two cubes of two literals.
  SopSpec s(2);
  s.on.set(0b00);
  s.on.set(0b11);
  const Cover c = minimize_exact(s);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.num_literals(), 4);
  EXPECT_TRUE(cover_implements(c, s));
}

TEST(Exact, ClassicFourVarExample) {
  // Classic QM example: f(a,b,c,d) with minimum 3-cube cover.
  SopSpec s(4);
  for (std::uint64_t m : {4u, 8u, 10u, 11u, 12u, 15u}) s.on.set(m);
  for (std::uint64_t m : {9u, 14u}) s.dc.set(m);
  const Cover c = minimize_exact(s);
  EXPECT_TRUE(cover_implements(c, s));
  EXPECT_LE(c.size(), 3u);
}

TEST(Exact, ThrowsOnTooManyVars) {
  EXPECT_THROW(minimize_exact(SopSpec(15)), std::invalid_argument);
}

TEST(CoverImplements, RejectsOffsetViolation) {
  SopSpec s(2);
  s.on.set(0b00);
  Cover c(2);
  c.add(Cube::universe());  // touches OFF minterms
  EXPECT_FALSE(cover_implements(c, s));
}

TEST(CoverImplements, RejectsUncoveredOn) {
  SopSpec s(2);
  s.on.set(0b00);
  s.on.set(0b11);
  Cover c(2);
  c.add(Cube::minterm(0, 2));
  EXPECT_FALSE(cover_implements(c, s));
}

// ---- Property sweep: heuristic output always implements the spec and is
// never smaller than the exact optimum.

struct MinimizeCase {
  int vars;
  double on_density;
  double dc_density;
  std::uint64_t seed;
};

// Names the case by its fields, so a test's name does not depend on the
// struct's padding bytes.
std::string minimize_name(const ::testing::TestParamInfo<MinimizeCase>& info) {
  const MinimizeCase& c = info.param;
  return "v" + std::to_string(c.vars) + "_on" +
         std::to_string(std::lround(c.on_density * 100)) + "_dc" +
         std::to_string(std::lround(c.dc_density * 100)) + "_s" +
         std::to_string(c.seed);
}

class MinimizeProperty : public ::testing::TestWithParam<MinimizeCase> {};

TEST_P(MinimizeProperty, EspressoImplementsSpec) {
  const auto& pc = GetParam();
  const SopSpec s = random_spec(pc.vars, pc.on_density, pc.dc_density, pc.seed);
  const Cover c = minimize_espresso(s);
  EXPECT_TRUE(cover_implements(c, s));
  // Never worse than the trivial minterm cover.
  EXPECT_LE(c.size(), s.on.count());
}

TEST_P(MinimizeProperty, EspressoAtLeastExactSize) {
  const auto& pc = GetParam();
  if (pc.vars > 6) GTEST_SKIP() << "exact only on small instances";
  const SopSpec s = random_spec(pc.vars, pc.on_density, pc.dc_density, pc.seed);
  const Cover h = minimize_espresso(s);
  const Cover e = minimize_exact(s);
  EXPECT_TRUE(cover_implements(e, s));
  EXPECT_GE(h.size(), e.size());
  // Heuristic should stay within 2x of optimal on these sizes.
  EXPECT_LE(h.size(), 2 * e.size() + 1);
}

// EXPAND is the last step to touch a cube, so every cube is prime: dropping
// any one of its literals reaches an OFF minterm.
TEST_P(MinimizeProperty, EspressoCubesArePrime) {
  const auto& pc = GetParam();
  const SopSpec s = random_spec(pc.vars, pc.on_density, pc.dc_density, pc.seed);
  const BitVec off = s.off();
  const Cover c = minimize_espresso(s);
  for (const Cube& cube : c.cubes()) {
    for (int v = 0; v < s.num_vars; ++v) {
      if (!(cube.care & (std::uint64_t{1} << v))) continue;
      bool hits_off = false;
      for_each_minterm(cube.without_literal(v), s.num_vars,
                       [&](std::uint64_t m) { hits_off |= off.test(m); });
      EXPECT_TRUE(hits_off) << cube.to_string(s.num_vars) << " drops var "
                            << v;
    }
  }
}

// IRREDUNDANT runs last on whichever cover is kept, so every cube is the
// only one covering some ON minterm.
TEST_P(MinimizeProperty, EspressoCoverIsIrredundant) {
  const auto& pc = GetParam();
  const SopSpec s = random_spec(pc.vars, pc.on_density, pc.dc_density, pc.seed);
  const Cover c = minimize_espresso(s);
  const auto& cubes = c.cubes();
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    bool needed = false;
    for_each_minterm(cubes[i], s.num_vars, [&](std::uint64_t m) {
      if (needed || !s.on.test(m)) return;
      bool elsewhere = false;
      for (std::size_t j = 0; j < cubes.size() && !elsewhere; ++j) {
        elsewhere = j != i && cubes[j].contains(m);
      }
      needed = !elsewhere;
    });
    EXPECT_TRUE(needed) << cubes[i].to_string(s.num_vars) << " is redundant";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MinimizeProperty,
    ::testing::Values(
        MinimizeCase{3, 0.3, 0.1, 1}, MinimizeCase{3, 0.5, 0.0, 2},
        MinimizeCase{4, 0.2, 0.2, 3}, MinimizeCase{4, 0.6, 0.1, 4},
        MinimizeCase{5, 0.4, 0.1, 5}, MinimizeCase{5, 0.1, 0.3, 6},
        MinimizeCase{6, 0.5, 0.05, 7}, MinimizeCase{6, 0.25, 0.25, 8},
        MinimizeCase{8, 0.3, 0.1, 9}, MinimizeCase{8, 0.5, 0.2, 10},
        MinimizeCase{10, 0.4, 0.1, 11}, MinimizeCase{12, 0.3, 0.1, 12}),
    minimize_name);

// ---- Differential sweep: minimize_espresso equals the minterm-at-a-time
// reference cube for cube, in the same order, on random specs below, at
// and above the 6-variable word boundary, from empty to full functions.

struct OracleCase {
  int vars;
  double on_density;
  double dc_density;
};

std::string oracle_name(const ::testing::TestParamInfo<OracleCase>& info) {
  const OracleCase& c = info.param;
  return "v" + std::to_string(c.vars) + "_on" +
         std::to_string(std::lround(c.on_density * 100)) + "_dc" +
         std::to_string(std::lround(c.dc_density * 100));
}

class EspressoOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(EspressoOracle, EqualsMintermReferenceCubeForCube) {
  const OracleCase& pc = GetParam();
  const int seeds = pc.vars <= 8 ? 10 : (pc.vars <= 10 ? 4 : 2);
  for (int seed = 0; seed < seeds; ++seed) {
    const SopSpec s =
        random_spec(pc.vars, pc.on_density, pc.dc_density,
                    static_cast<std::uint64_t>(1000 * pc.vars + seed));
    const Cover got = minimize_espresso(s);
    const Cover want = reference::minimize_espresso(s);
    ASSERT_EQ(got.to_string(), want.to_string())
        << "vars " << pc.vars << " seed " << seed;
    EXPECT_TRUE(cover_implements(got, s));
  }
}

std::vector<OracleCase> oracle_cases() {
  // {ON density, DC density, most variables}. The reference's IRREDUNDANT
  // is quadratic in the cube count, so the dense random functions, which
  // keep thousands of cubes, stop at 12 variables.
  const struct {
    double on, dc;
    int max_vars;
  } densities[] = {{0.0, 0.0, 14},  {1.0, 0.0, 14},  {0.0, 1.0, 14},
                   {0.5, 0.5, 14},  {0.05, 0.0, 14}, {0.1, 0.6, 14},
                   {0.02, 0.9, 14}, {0.5, 0.0, 12},  {0.95, 0.0, 12},
                   {0.3, 0.3, 12},  {0.6, 0.35, 12}};
  std::vector<OracleCase> cases;
  for (int vars = 1; vars <= 14; ++vars) {
    for (const auto& d : densities) {
      if (vars <= d.max_vars) cases.push_back({vars, d.on, d.dc});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, EspressoOracle,
                         ::testing::ValuesIn(oracle_cases()), oracle_name);

}  // namespace
}  // namespace ced::logic
