// Sparse revised simplex (lp/revised.cpp): equivalence against the dense
// tableau oracle (lp::solve_dense) on random problems and on the cover LPs
// of the ledger's small suite, degenerate/cycling guards (Bland fallback),
// and the warm-start contract — a basis carried across cover-LP
// formulations (core/ilp.hpp identity keys) must never change feasibility
// verdicts or optimal objectives, and the full solver must select the q
// the cold dense oracle selected, at 1 and 4 threads.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "benchdata/suite.hpp"
#include "core/algorithm1.hpp"
#include "core/extract.hpp"
#include "core/ilp.hpp"
#include "core/parity.hpp"
#include "fsm/synthesize.hpp"
#include "lp/simplex.hpp"
#include "sim/faults.hpp"

namespace ced {
namespace {

using core::DetectabilityTable;
using core::ErroneousCase;

/// Random table in canonical form: each case is a sorted set of 1..max_len
/// distinct nonzero difference words over n bits (same construction as
/// test_coverkernel.cpp).
DetectabilityTable random_table(std::mt19937_64& rng, int n, std::size_t m,
                                int max_len) {
  DetectabilityTable t;
  t.num_bits = n;
  t.latency = max_len;
  const std::uint64_t mask =
      n >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
  std::uniform_int_distribution<int> len_dist(1, max_len);
  while (t.cases.size() < m) {
    std::set<std::uint64_t> words;
    const int len = len_dist(rng);
    for (int k = 0; k < len; ++k) {
      const std::uint64_t w = rng() & mask;
      if (w != 0) words.insert(w);
    }
    if (words.empty()) continue;
    ErroneousCase ec;
    ec.length = static_cast<std::uint8_t>(words.size());
    std::size_t k = 0;
    for (const std::uint64_t w : words) ec.diff[k++] = w;
    t.cases.push_back(ec);
  }
  return t;
}

/// Random bounded LP with mixed relations. Bounds are finite-lower with a
/// mix of finite and infinite uppers; coefficients are small integers so
/// degenerate ties are common.
lp::LpProblem random_lp(std::mt19937_64& rng, int nv, int m) {
  lp::LpProblem p;
  std::uniform_int_distribution<int> coeff(-3, 3);
  std::uniform_real_distribution<double> low(-4.0, 1.0);
  std::uniform_real_distribution<double> span(0.0, 6.0);
  std::uniform_int_distribution<int> pick(0, 5);
  for (int j = 0; j < nv; ++j) {
    const double l = low(rng);
    const double u = pick(rng) == 0 ? lp::kInfinity : l + span(rng);
    p.add_variable(l, u, static_cast<double>(coeff(rng)));
  }
  p.set_objective_sense(pick(rng) % 2 == 0 ? lp::Objective::kMinimize
                                           : lp::Objective::kMaximize);
  for (int i = 0; i < m; ++i) {
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < nv; ++j) {
      const int c = coeff(rng);
      if (c != 0) terms.emplace_back(j, static_cast<double>(c));
    }
    if (terms.empty()) terms.emplace_back(0, 1.0);
    const int r = pick(rng) % 3;
    const lp::Relation rel = r == 0   ? lp::Relation::kLe
                             : r == 1 ? lp::Relation::kGe
                                      : lp::Relation::kEq;
    p.add_constraint(std::move(terms), rel, static_cast<double>(coeff(rng)));
  }
  return p;
}

/// Max constraint violation of x (0 when x satisfies the whole system).
double violation(const lp::LpProblem& p, const std::vector<double>& x) {
  double worst = 0.0;
  for (int i = 0; i < p.num_constraints(); ++i) {
    double lhs = 0.0;
    for (const auto& [v, c] : p.rows()[static_cast<std::size_t>(i)]) {
      lhs += c * x[static_cast<std::size_t>(v)];
    }
    const double rhs = p.rhs()[static_cast<std::size_t>(i)];
    switch (p.relations()[static_cast<std::size_t>(i)]) {
      case lp::Relation::kLe: worst = std::max(worst, lhs - rhs); break;
      case lp::Relation::kGe: worst = std::max(worst, rhs - lhs); break;
      case lp::Relation::kEq: worst = std::max(worst, std::abs(lhs - rhs));
        break;
    }
  }
  return worst;
}

TEST(RevisedLp, MatchesDenseOracleOnRandomProblems) {
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<int> nv_dist(1, 12);
  std::uniform_int_distribution<int> m_dist(1, 14);
  int optimal_seen = 0;
  for (int t = 0; t < 300; ++t) {
    const lp::LpProblem p = random_lp(rng, nv_dist(rng), m_dist(rng));
    const lp::LpResult revised = lp::solve(p);
    const lp::LpResult dense = lp::solve_dense(p);
    ASSERT_EQ(revised.status, dense.status) << "instance " << t;
    if (revised.status != lp::Status::kOptimal) continue;
    ++optimal_seen;
    const double tol = 1e-6 * (1.0 + std::abs(dense.objective));
    EXPECT_NEAR(revised.objective, dense.objective, tol) << "instance " << t;
    EXPECT_LE(violation(p, revised.x), 1e-6) << "instance " << t;
  }
  // The generator must actually exercise the optimal path, not just
  // infeasible/unbounded corners.
  EXPECT_GT(optimal_seen, 50);
}

// Beale's classic cycling example: Dantzig pricing with exact degenerate
// ties cycles forever without anti-cycling; the stall counter must hand
// over to Bland's rule and terminate at the optimum.
TEST(RevisedLp, BealeCyclingExampleTerminates) {
  lp::LpProblem p;
  const int x1 = p.add_variable(0, lp::kInfinity, -0.75);
  const int x2 = p.add_variable(0, lp::kInfinity, 150.0);
  const int x3 = p.add_variable(0, lp::kInfinity, -0.02);
  const int x4 = p.add_variable(0, lp::kInfinity, 6.0);
  p.add_constraint({{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}},
                   lp::Relation::kLe, 0.0);
  p.add_constraint({{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}},
                   lp::Relation::kLe, 0.0);
  p.add_constraint({{x3, 1.0}}, lp::Relation::kLe, 1.0);
  const lp::LpResult res = lp::solve(p);
  ASSERT_EQ(res.status, lp::Status::kOptimal);
  EXPECT_NEAR(res.objective, -0.05, 1e-9);
}

// A massively degenerate system — every constraint is tight at the lone
// optimal vertex and duplicated several times, so nearly every ratio test
// ties at zero. The solver must still reach the optimum within its budget.
TEST(RevisedLp, MassDegeneracyReachesOptimum) {
  lp::LpProblem p;
  const int n = 8;
  std::vector<int> xs;
  for (int j = 0; j < n; ++j) xs.push_back(p.add_variable(0.0, 1.0, -1.0));
  for (int rep = 0; rep < 4; ++rep) {
    for (int j = 0; j < n; ++j) {
      p.add_constraint({{xs[static_cast<std::size_t>(j)], 1.0}},
                       lp::Relation::kLe, 0.0);
    }
  }
  std::vector<std::pair<int, double>> all;
  for (int j = 0; j < n; ++j) all.emplace_back(xs[static_cast<std::size_t>(j)], 1.0);
  p.add_constraint(std::move(all), lp::Relation::kGe, 0.0);
  const lp::LpResult res = lp::solve(p);
  ASSERT_EQ(res.status, lp::Status::kOptimal);
  EXPECT_NEAR(res.objective, 0.0, 1e-9);
}

// Warm-starting a solve from its own optimal basis must apply structurally,
// re-prove optimality with zero phase-1 work, and reproduce the objective.
TEST(RevisedLp, WarmFromOwnBasisIsFree) {
  std::mt19937_64 rng(11);
  const DetectabilityTable t = random_table(rng, 12, 40, 3);
  const std::vector<std::uint32_t> rows = [&] {
    std::vector<std::uint32_t> r(t.cases.size());
    for (std::uint32_t i = 0; i < r.size(); ++i) r[i] = i;
    return r;
  }();
  core::LpFormulation f = core::build_lp(t, rows, 3);
  lp::SolverOptions opts;
  opts.want_basis = true;
  const lp::LpResult cold = lp::solve(f.problem, opts);
  ASSERT_EQ(cold.status, lp::Status::kOptimal);
  ASSERT_TRUE(cold.basis.has_value());

  lp::SolverOptions warm_opts;
  warm_opts.warm = &*cold.basis;
  const lp::LpResult warm = lp::solve(f.problem, warm_opts);
  ASSERT_EQ(warm.status, lp::Status::kOptimal);
  EXPECT_TRUE(warm.warm_applied);
  EXPECT_EQ(warm.phase1_iterations, 0);
  EXPECT_NEAR(warm.objective, cold.objective,
              1e-9 * (1.0 + std::abs(cold.objective)));
}

// The cross-formulation warm-start contract: mapping the q-basis onto the
// q+1 / q-1 formulations (the binary search's neighbors) must leave the
// optimal objective and the feasibility verdict identical to a cold solve
// — a warm start changes the pivot path, never the answer.
TEST(RevisedLp, WarmAcrossQMatchesColdOracle) {
  std::mt19937_64 rng(23);
  for (int inst = 0; inst < 100; ++inst) {
    const int n = 6 + static_cast<int>(rng() % 8);
    const std::size_t m = 10 + rng() % 30;
    const DetectabilityTable t =
        random_table(rng, n, m, 1 + static_cast<int>(rng() % 3));
    std::vector<std::uint32_t> rows(t.cases.size());
    for (std::uint32_t i = 0; i < rows.size(); ++i) rows[i] = i;
    const int q = 1 + static_cast<int>(rng() % 3);

    core::LpFormulation from = core::build_lp(t, rows, q);
    lp::SolverOptions opts;
    opts.want_basis = true;
    const lp::LpResult seed = lp::solve(from.problem, opts);
    if (seed.status != lp::Status::kOptimal) continue;
    const core::LpBasisMemo memo{from.var_key, from.row_key, *seed.basis};

    for (const int q2 : {q + 1, std::max(1, q - 1), q}) {
      core::LpFormulation to = core::build_lp(t, rows, q2);
      const lp::LpResult cold = lp::solve(to.problem, {});
      const lp::BasisSnapshot snap = core::map_basis_to(memo, to);
      lp::SolverOptions wopts;
      wopts.warm = &snap;
      const lp::LpResult warm = lp::solve(to.problem, wopts);
      ASSERT_EQ(warm.status, cold.status)
          << "instance " << inst << " q " << q << "->" << q2;
      if (cold.status == lp::Status::kOptimal) {
        EXPECT_NEAR(warm.objective, cold.objective,
                    1e-6 * (1.0 + std::abs(cold.objective)))
            << "instance " << inst << " q " << q << "->" << q2;
      }
    }
  }
}

// End-to-end oracle: the full Algorithm-1 solver, warm-starting its
// revised LPs, must pick the q the cold dense oracle picked (pinned from
// the former dense LP path, which ignored warm starts), at 1 and at 4
// threads. Covers 100 random instances.
TEST(RevisedLp, SolverQIdenticalWarmVsColdThreads1And4) {
  const int kDenseQ[100] = {
      3, 3, 3, 3, 3, 2, 3, 2, 2, 2, 2, 3, 3, 3, 2, 3, 2, 2, 2, 2,
      3, 2, 2, 3, 3, 3, 3, 4, 2, 2, 3, 4, 3, 3, 3, 2, 2, 3, 3, 3,
      3, 2, 2, 3, 2, 3, 3, 2, 2, 3, 2, 3, 3, 3, 2, 2, 3, 2, 3, 2,
      3, 3, 2, 3, 3, 3, 3, 4, 3, 2, 2, 3, 4, 2, 2, 2, 2, 2, 3, 3,
      3, 2, 3, 3, 2, 3, 4, 2, 2, 3, 3, 3, 3, 3, 4, 3, 2, 3, 3, 3};
  std::mt19937_64 rng(31);
  for (int inst = 0; inst < 100; ++inst) {
    const int n = 8 + static_cast<int>(rng() % 8);
    const std::size_t m = 20 + rng() % 80;
    const DetectabilityTable t =
        random_table(rng, n, m, 1 + static_cast<int>(rng() % 3));

    core::Algorithm1Options opts;
    opts.iter = 8;
    opts.row_rounds = 2;
    opts.seed = 0x5eed + static_cast<std::uint64_t>(inst);

    for (const int threads : {1, 4}) {
      opts.threads = threads;
      core::Algorithm1Stats stats;
      const auto sol = core::minimize_parity_functions(t, opts, &stats);
      ASSERT_TRUE(core::covers_all(sol, t))
          << "instance " << inst << " threads " << threads;
      EXPECT_EQ(static_cast<int>(sol.size()), kDenseQ[inst])
          << "instance " << inst << " threads " << threads;
      EXPECT_LE(stats.lp_warm_hits, stats.lp_warm_attempts);
    }
  }
}

/// q of `circuit` (impl semantics) at latency p in the committed results
/// ledger (bench/ledger.txt); -1 when the line is missing.
int ledger_q(const std::string& circuit, int p) {
  std::ifstream in(CED_LEDGER_PATH);
  const std::string prefix = circuit + " impl p=" + std::to_string(p) + " ";
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t at = line.find(" q=");
    if (at != std::string::npos) return std::stoi(line.substr(at + 3));
  }
  return -1;
}

// The real cover LPs: for every circuit of the ledger's small suite at
// p=3, the Statement-4 relaxation over the 48 hardest rows at every q from
// 1 to the ledger's q, solved cold with lp::solve, warm from q-1's basis,
// and with the dense oracle. Statuses must match, objectives agree, and
// the revised points satisfy every row. This is the check lp::solve runs
// on every solve in builds without NDEBUG.
TEST(RevisedLp, MatchesDenseOnSmallSuiteCoverLps) {
  constexpr int kLatency = 3;
  constexpr std::size_t kRows = 48;
  for (const char* name : {"s27", "tav", "dk14", "donfile", "dk16", "s386"}) {
    const int q_max = ledger_q(name, kLatency);
    ASSERT_GT(q_max, 0) << name << " missing from " << CED_LEDGER_PATH;
    const fsm::FsmCircuit c = fsm::synthesize_fsm(
        benchdata::suite_fsm(name), fsm::EncodingKind::kBinary, {});
    core::ExtractOptions ex;
    ex.latency = kLatency;
    ex.threads = 1;
    const DetectabilityTable t =
        core::extract_cases(c, sim::enumerate_stuck_at(c.netlist), ex);
    const core::SolverContext ctx(t);
    const std::vector<std::uint32_t> rows(
        ctx.hard_order.begin(),
        ctx.hard_order.begin() +
            static_cast<std::ptrdiff_t>(std::min(kRows, t.cases.size())));

    std::optional<core::LpBasisMemo> memo;
    for (int q = 1; q <= q_max; ++q) {
      const core::LpFormulation f = core::build_lp(t, rows, q);
      lp::SolverOptions cold_opts;
      cold_opts.want_basis = true;
      const lp::LpResult cold = lp::solve(f.problem, cold_opts);
      const lp::LpResult dense = lp::solve_dense(f.problem);
      std::vector<lp::LpResult> revised = {cold};
      if (memo) {
        const lp::BasisSnapshot snap = core::map_basis_to(*memo, f);
        lp::SolverOptions warm_opts;
        warm_opts.warm = &snap;
        revised.push_back(lp::solve(f.problem, warm_opts));
      }
      for (const lp::LpResult& r : revised) {
        ASSERT_EQ(r.status, dense.status) << name << " q=" << q;
        if (dense.status != lp::Status::kOptimal) continue;
        EXPECT_NEAR(r.objective, dense.objective,
                    1e-6 * (1.0 + std::abs(dense.objective)))
            << name << " q=" << q;
        EXPECT_LE(violation(f.problem, r.x), 1e-6) << name << " q=" << q;
      }
      memo.reset();
      if (cold.basis) {
        memo = core::LpBasisMemo{f.var_key, f.row_key, *cold.basis};
      }
    }
  }
}

}  // namespace
}  // namespace ced
