#include <gtest/gtest.h>

#include "benchdata/handwritten.hpp"
#include "core/algorithm1.hpp"
#include "core/coverkernel.hpp"
#include "core/exact.hpp"
#include "core/extract.hpp"
#include "core/greedy.hpp"
#include "core/ilp.hpp"
#include "core/parity.hpp"
#include "kiss/kiss.hpp"
#include "sim/faults.hpp"

namespace ced::core {
namespace {

DetectabilityTable table_for(const std::string& name, int p) {
  const fsm::Fsm f =
      fsm::Fsm::from_kiss(kiss::parse(benchdata::handwritten_kiss(name)));
  const fsm::FsmCircuit c =
      fsm::synthesize_fsm(f, fsm::EncodingKind::kBinary, {});
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions opts;
  opts.latency = p;
  return extract_cases(c, faults, opts);
}

/// Hand-crafted table for unit-level checks.
DetectabilityTable tiny_table() {
  DetectabilityTable t;
  t.num_bits = 4;
  t.latency = 2;
  auto add = [&](std::initializer_list<std::uint64_t> diffs) {
    ErroneousCase ec;
    ec.length = static_cast<std::uint8_t>(diffs.size());
    int k = 0;
    for (auto d : diffs) ec.diff[static_cast<std::size_t>(k++)] = d;
    t.cases.push_back(ec);
  };
  add({0b0001});          // only bit 0 at step 1
  add({0b0110});          // bits 1,2 at step 1
  add({0b1000, 0b0001});  // bit 3 at step 1 or bit 0 at step 2
  return t;
}

TEST(ParityCover, SingleBitDetection) {
  const DetectabilityTable t = tiny_table();
  EXPECT_TRUE(covers(0b0001, t.cases[0]));
  EXPECT_FALSE(covers(0b0010, t.cases[0]));
  // Even overlap does not detect.
  EXPECT_FALSE(covers(0b0110, t.cases[1]));
  EXPECT_TRUE(covers(0b0010, t.cases[1]));
  EXPECT_TRUE(covers(0b0100, t.cases[1]));
}

TEST(ParityCover, LatencyStepsAreAlternatives) {
  const DetectabilityTable t = tiny_table();
  // Case 2 is covered either via bit 3 (step 1) or bit 0 (step 2).
  EXPECT_TRUE(covers(0b1000, t.cases[2]));
  EXPECT_TRUE(covers(0b0001, t.cases[2]));
  EXPECT_FALSE(covers(0b0010, t.cases[2]));
}

TEST(ParityCover, CoversAllAndUncovered) {
  const DetectabilityTable t = tiny_table();
  const std::vector<ParityFunc> good{0b0001, 0b0010};
  EXPECT_TRUE(covers_all(good, t));
  EXPECT_TRUE(uncovered_cases(good, t).empty());
  const std::vector<ParityFunc> bad{0b0110};
  const auto u = uncovered_cases(bad, t);
  ASSERT_EQ(u.size(), 3u);  // 0b0110 covers nothing here
}

TEST(ParityCover, UncoveredAmongSubset) {
  const DetectabilityTable t = tiny_table();
  const std::vector<ParityFunc> betas{0b0001};
  const std::vector<std::uint32_t> rows{1, 2};
  std::vector<std::uint32_t> u;
  for (const std::uint32_t local : CoverKernel(t, rows).uncovered(betas)) {
    u.push_back(rows[local]);
  }
  ASSERT_EQ(u.size(), 1u);
  EXPECT_EQ(u[0], 1u);
}

TEST(ParityCover, PruneDropsRedundantTrees) {
  const DetectabilityTable t = tiny_table();
  const std::vector<ParityFunc> betas{0b0001, 0b0010, 0b1000};
  const auto pruned = prune_redundant(betas, t);
  EXPECT_EQ(pruned.size(), 2u);
  EXPECT_TRUE(covers_all(pruned, t));
}

TEST(Greedy, CoversEverything) {
  for (const char* name : {"seq_detect", "traffic", "vending", "link_rx"}) {
    for (int p : {1, 2}) {
      const DetectabilityTable t = table_for(name, p);
      const auto sol = greedy_cover(t);
      EXPECT_TRUE(covers_all(sol, t)) << name << " p=" << p;
      EXPECT_GE(sol.size(), 1u);
    }
  }
}

TEST(Greedy, SamplingPathStillCompletes) {
  const DetectabilityTable t = table_for("link_rx", 3);
  GreedyOptions opts;
  opts.sample_cap = 10;  // force many sample rounds
  const auto sol = greedy_cover(t, opts);
  EXPECT_TRUE(covers_all(sol, t));
}

TEST(Greedy, DeterministicForSeed) {
  const DetectabilityTable t = table_for("vending", 2);
  const auto a = greedy_cover(t);
  const auto b = greedy_cover(t);
  EXPECT_EQ(a, b);
}

TEST(Exact, OptimalOnTinyTable) {
  const DetectabilityTable t = tiny_table();
  const auto sol = exact_min_cover(t);
  ASSERT_TRUE(sol.has_value());
  EXPECT_TRUE(covers_all(*sol, t));
  // beta = {b0, b1} covers all three cases alone: odd overlap with 0001
  // and 0110 at step 1, and with 0001 at step 2 of the third case.
  EXPECT_EQ(sol->size(), 1u);
}

TEST(Exact, TwoTreesWhenStepsConflict) {
  // Force a genuine q=2 instance: two cases whose only detecting bits are
  // disjoint singletons that no single parity can both hit oddly along
  // with a case that excludes their union.
  DetectabilityTable t;
  t.num_bits = 2;
  t.latency = 1;
  ErroneousCase a, b, c;
  a.length = b.length = c.length = 1;
  a.diff[0] = 0b01;  // needs bit 0
  b.diff[0] = 0b10;  // needs bit 1
  c.diff[0] = 0b11;  // needs exactly one of bit 0 / bit 1
  t.cases = {a, b, c};
  // {b0,b1} covers a and b but overlaps c evenly; so one tree cannot do
  // all three.
  const auto sol = exact_min_cover(t);
  ASSERT_TRUE(sol.has_value());
  EXPECT_TRUE(covers_all(*sol, t));
  EXPECT_EQ(sol->size(), 2u);
}

TEST(Exact, RefusesWideTables) {
  DetectabilityTable t;
  t.num_bits = 20;
  t.latency = 1;
  ErroneousCase ec;
  ec.length = 1;
  ec.diff[0] = 1;
  t.cases.push_back(ec);
  ExactOptions opts;
  opts.max_bits = 14;
  EXPECT_FALSE(exact_min_cover(t, opts).has_value());
}

TEST(Exact, EmptyTableNeedsNothing) {
  DetectabilityTable t;
  t.num_bits = 4;
  t.latency = 1;
  const auto sol = exact_min_cover(t);
  ASSERT_TRUE(sol.has_value());
  EXPECT_TRUE(sol->empty());
}

TEST(Algorithm1, SolveForQFindsKnownCover) {
  const DetectabilityTable t = tiny_table();
  const auto sol = solve_for_q(t, 2);
  ASSERT_TRUE(sol.has_value());
  EXPECT_TRUE(covers_all(*sol, t));
  EXPECT_LE(sol->size(), 2u);
}

TEST(Algorithm1, MatchesExactOnRealMachines) {
  // On machines small enough for the exact solver, Algorithm 1 should land
  // within one tree of the optimum (randomized rounding + repair).
  for (const char* name : {"seq_detect", "traffic", "vending"}) {
    const DetectabilityTable t = table_for(name, 2);
    const auto exact = exact_min_cover(t);
    ASSERT_TRUE(exact.has_value()) << name;
    Algorithm1Stats stats;
    const auto sol = minimize_parity_functions(t, {}, &stats);
    EXPECT_TRUE(covers_all(sol, t)) << name;
    EXPECT_LE(sol.size(), exact->size() + 1) << name;
    EXPECT_GE(sol.size(), exact->size()) << name;
  }
}

TEST(Algorithm1, NeverWorseThanGreedy) {
  for (const char* name : {"arbiter", "modulo5", "link_rx"}) {
    for (int p : {1, 2, 3}) {
      const DetectabilityTable t = table_for(name, p);
      const auto g = greedy_cover(t);
      const auto a = minimize_parity_functions(t);
      EXPECT_TRUE(covers_all(a, t)) << name << " p=" << p;
      EXPECT_LE(a.size(), g.size()) << name << " p=" << p;
    }
  }
}

TEST(Algorithm1, EmptyTable) {
  DetectabilityTable t;
  t.num_bits = 4;
  t.latency = 1;
  Algorithm1Stats stats;
  EXPECT_TRUE(minimize_parity_functions(t, {}, &stats).empty());
  EXPECT_EQ(stats.final_q, 0);
}

TEST(Algorithm1, MonotoneInLatency) {
  // More latency -> more detection alternatives -> never more trees
  // (up to rounding noise; assert non-strict monotonicity with slack 0).
  const fsm::Fsm f =
      fsm::Fsm::from_kiss(kiss::parse(benchdata::handwritten_kiss("link_rx")));
  const fsm::FsmCircuit c =
      fsm::synthesize_fsm(f, fsm::EncodingKind::kBinary, {});
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions opts;
  opts.latency = 3;
  const auto multi = extract_cases_multi(c, faults, opts);
  std::size_t prev = 1000;
  std::vector<ParityFunc> warm;
  for (int p : {1, 2, 3}) {
    const auto sol = minimize_parity_functions(
        multi[static_cast<std::size_t>(p - 1)], {}, nullptr, warm);
    EXPECT_LE(sol.size(), prev) << "p=" << p;
    prev = sol.size();
    warm = sol;
  }
}

// ---- LP formulation equivalence (Statement 5 vs reduced form).

TEST(Algorithm1, Statement5FormulationAlsoSolves) {
  const DetectabilityTable t = tiny_table();
  Algorithm1Options opts;
  opts.use_statement5 = true;
  const auto sol = solve_for_q(t, 2, opts);
  ASSERT_TRUE(sol.has_value());
  EXPECT_TRUE(covers_all(*sol, t));
}

TEST(Algorithm1, WarmStartIsHonored) {
  const DetectabilityTable t = tiny_table();
  // A valid single-tree cover used as warm start must never be worsened.
  const std::vector<ParityFunc> warm{0b0011};
  ASSERT_TRUE(covers_all(warm, t));
  const auto sol = minimize_parity_functions(t, {}, nullptr, warm);
  EXPECT_TRUE(covers_all(sol, t));
  EXPECT_LE(sol.size(), warm.size());
}

TEST(Algorithm1, InvalidWarmStartIsIgnored) {
  const DetectabilityTable t = tiny_table();
  const std::vector<ParityFunc> bogus{0b1000};  // covers only case 3
  ASSERT_FALSE(covers_all(bogus, t));
  const auto sol = minimize_parity_functions(t, {}, nullptr, bogus);
  EXPECT_TRUE(covers_all(sol, t));
}

TEST(Algorithm1, PaperFaithfulModeStillSolves) {
  // repair/post-optimize off: pure binary search + LP + rounding.
  const DetectabilityTable t = table_for("traffic", 2);
  Algorithm1Options opts;
  opts.repair = false;
  opts.post_optimize = false;
  const auto sol = minimize_parity_functions(t, opts);
  EXPECT_TRUE(covers_all(sol, t));
}

TEST(IlpFormulations, ReducedAndStatement5AgreeOnObjective) {
  const DetectabilityTable t = tiny_table();
  std::vector<std::uint32_t> rows{0, 1, 2};
  for (int q : {1, 2, 3}) {
    LpFormulation fr = build_lp(t, rows, q);
    LpFormulation f5 = build_lp_statement5(t, rows, q);
    const auto rr = lp::solve(fr.problem);
    const auto r5 = lp::solve(f5.problem);
    ASSERT_EQ(rr.status, lp::Status::kOptimal);
    ASSERT_EQ(r5.status, lp::Status::kOptimal);
    // Same relaxation: identical optimal objective (min sum of beta).
    EXPECT_NEAR(rr.objective, r5.objective, 1e-5) << "q=" << q;
  }
}

TEST(IlpFormulations, BetaValuesShapeAndRange) {
  const DetectabilityTable t = tiny_table();
  std::vector<std::uint32_t> rows{0, 1, 2};
  LpFormulation f = build_lp(t, rows, 2);
  const auto res = lp::solve(f.problem);
  ASSERT_EQ(res.status, lp::Status::kOptimal);
  const auto x = beta_values(f, res);
  ASSERT_EQ(x.size(), 2u);
  ASSERT_EQ(x[0].size(), 4u);
  for (const auto& tree : x) {
    for (double v : tree) {
      EXPECT_GE(v, -1e-9);
      EXPECT_LE(v, 1.0 + 1e-9);
    }
  }
}

TEST(IlpFormulations, IntegerFeasiblePointSatisfiesLp) {
  // Take a known integer cover and check it is feasible for the LP
  // relaxation (with suitable r): the LP optimum can only be <= its cost.
  const DetectabilityTable t = tiny_table();
  std::vector<std::uint32_t> rows{0, 1, 2};
  LpFormulation f = build_lp(t, rows, 2);
  const auto res = lp::solve(f.problem);
  ASSERT_EQ(res.status, lp::Status::kOptimal);
  // Integer solution {0b0001, 0b0010} has total beta mass 2.
  EXPECT_LE(res.objective, 2.0 + 1e-6);
}

}  // namespace
}  // namespace ced::core
