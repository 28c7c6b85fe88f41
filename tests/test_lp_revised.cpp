// Sparse revised simplex (lp/revised.cpp): equivalence against the dense
// tableau oracle (lp::solve_dense) on random problems and on the cover LPs
// of the ledger's small suite, degenerate/cycling guards (Bland fallback),
// and the warm-start contract — a basis carried across cover-LP
// formulations (core/ilp.hpp identity keys) must never change feasibility
// verdicts or optimal objectives, and the full solver must select the q
// the cold dense oracle selected, at 1 and 4 threads. The small suite's
// cover LPs also pin the exact pivot path (counts and result bits), so a
// solver refactor that must not move a pivot proves that it did not. The
// eta file (lp/basis.hpp) is checked against a dense Gaussian solve, and
// the factorization's repair of a dependent warm column against the dense
// oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "benchdata/suite.hpp"
#include "common/digest.hpp"
#include "core/algorithm1.hpp"
#include "core/extract.hpp"
#include "core/ilp.hpp"
#include "core/parity.hpp"
#include "fsm/synthesize.hpp"
#include "lp/basis.hpp"
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

/// Solves B z = x (B dense, row-major m x m, nonsingular) by Gaussian
/// elimination with partial pivoting.
std::vector<double> dense_solve(std::vector<double> b, std::vector<double> x,
                                int m) {
  const auto at = [&](int r, int c) -> double& {
    return b[static_cast<std::size_t>(r) * static_cast<std::size_t>(m) +
             static_cast<std::size_t>(c)];
  };
  for (int c = 0; c < m; ++c) {
    int piv = c;
    for (int r = c + 1; r < m; ++r) {
      if (std::abs(at(r, c)) > std::abs(at(piv, c))) piv = r;
    }
    for (int k = 0; k < m; ++k) std::swap(at(c, k), at(piv, k));
    std::swap(x[static_cast<std::size_t>(c)], x[static_cast<std::size_t>(piv)]);
    for (int r = c + 1; r < m; ++r) {
      const double f = at(r, c) / at(c, c);
      for (int k = c; k < m; ++k) at(r, k) -= f * at(c, k);
      x[static_cast<std::size_t>(r)] -= f * x[static_cast<std::size_t>(c)];
    }
  }
  for (int r = m - 1; r >= 0; --r) {
    double s = x[static_cast<std::size_t>(r)];
    for (int k = r + 1; k < m; ++k) s -= at(r, k) * x[static_cast<std::size_t>(k)];
    x[static_cast<std::size_t>(r)] = s / at(r, r);
  }
  return x;
}

// The eta file against a dense solve, on random sparse bases that mix +1
// and -1 unit columns (slacks and surpluses; the +1 pivots are elided
// identities) with structural columns, then take three product-form
// column replacements. The file is built the way the revised simplex
// builds it: unit columns through push_unit on their own rows, the rest
// FTRANed through the file so far on a WorkColumn and pivoted at their
// largest free row. ftran (dense and on a work column) must solve B z = x
// and btran B^T u = y, and etas() must count every pivot, elided or not.
TEST(RevisedLp, EtaFileMatchesDenseSolveOnRandomSparseBases) {
  std::mt19937_64 rng(41);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  for (int inst = 0; inst < 200; ++inst) {
    const int m = 2 + static_cast<int>(rng() % 39);
    // Column j of the basis lives on row home[j]: a unit column is
    // +-e_home, a structural one is dominant there (|4..6| against at most
    // three off-home entries of magnitude <= 1), so B is nonsingular.
    std::vector<int> home(static_cast<std::size_t>(m));
    for (int j = 0; j < m; ++j) home[static_cast<std::size_t>(j)] = j;
    std::shuffle(home.begin(), home.end(), rng);
    std::vector<std::vector<std::pair<int, double>>> cols;
    std::vector<char> is_unit;
    for (int j = 0; j < m; ++j) {
      const int h = home[static_cast<std::size_t>(j)];
      const int kind = static_cast<int>(rng() % 4);
      std::vector<std::pair<int, double>> col;
      if (kind < 2) {
        col.emplace_back(h, kind == 0 ? 1.0 : -1.0);
      } else {
        col.emplace_back(h, (rng() % 2 == 0 ? 1.0 : -1.0) * (5.0 + unit(rng)));
        const int extra = kind == 3 ? static_cast<int>(rng() % 4) : 0;
        for (int e = 0; e < extra; ++e) {
          const int r = static_cast<int>(rng() % static_cast<std::uint64_t>(m));
          if (r == h) continue;
          bool dup = false;
          for (const auto& [rr, v] : col) dup |= rr == r;
          if (!dup) col.emplace_back(r, unit(rng));
        }
      }
      std::sort(col.begin(), col.end());
      cols.push_back(std::move(col));
      is_unit.push_back(kind < 2 ? 1 : 0);
    }

    lp::EtaBasis eta;
    eta.reset();
    lp::WorkColumn w;
    w.resize(m);
    std::vector<double> bmat(static_cast<std::size_t>(m) *
                             static_cast<std::size_t>(m));
    std::vector<char> used(static_cast<std::size_t>(m), 0);
    const auto place = [&](const std::vector<std::pair<int, double>>& col,
                           int row) {
      for (int r = 0; r < m; ++r) {
        bmat[static_cast<std::size_t>(r) * static_cast<std::size_t>(m) +
             static_cast<std::size_t>(row)] = 0.0;
      }
      for (const auto& [r, v] : col) {
        bmat[static_cast<std::size_t>(r) * static_cast<std::size_t>(m) +
             static_cast<std::size_t>(row)] = v;
      }
    };
    const auto load = [&](const std::vector<std::pair<int, double>>& col) {
      w.clear();
      for (const auto& [r, v] : col) w.set(r, v);
      eta.ftran(w);
      w.sort_pattern();
    };
    for (int j = 0; j < m; ++j) {
      if (!is_unit[static_cast<std::size_t>(j)]) continue;
      const auto& [r, v] = cols[static_cast<std::size_t>(j)][0];
      eta.push_unit(r, v);
      used[static_cast<std::size_t>(r)] = 1;
      place(cols[static_cast<std::size_t>(j)], r);
    }
    for (int j = 0; j < m; ++j) {
      if (is_unit[static_cast<std::size_t>(j)]) continue;
      load(cols[static_cast<std::size_t>(j)]);
      int best = -1;
      for (const std::int32_t r : w.pattern()) {
        if (used[static_cast<std::size_t>(r)] == 0 &&
            (best < 0 || std::abs(w[r]) > std::abs(w[best]))) {
          best = r;
        }
      }
      ASSERT_GE(best, 0) << "instance " << inst;
      eta.push(w, best);
      used[static_cast<std::size_t>(best)] = 1;
      place(cols[static_cast<std::size_t>(j)], best);
    }
    EXPECT_EQ(eta.etas(), static_cast<std::size_t>(m)) << "instance " << inst;

    const auto check = [&](int updates) {
      std::vector<double> x(static_cast<std::size_t>(m));
      for (double& v : x) v = unit(rng);
      const std::vector<double> z = dense_solve(bmat, x, m);
      std::vector<double> got = x;
      eta.ftran(got);
      for (int r = 0; r < m; ++r) {
        const double want = z[static_cast<std::size_t>(r)];
        EXPECT_NEAR(got[static_cast<std::size_t>(r)], want,
                    1e-12 * (1.0 + std::abs(want)))
            << "instance " << inst << " updates " << updates;
      }
      // The same solve on a work column holding a sparse x: every row the
      // FTRAN fills must be listed.
      std::vector<double> xs(static_cast<std::size_t>(m), 0.0);
      w.clear();
      for (int r = 0; r < m; ++r) {
        if (rng() % 3 == 0) {
          xs[static_cast<std::size_t>(r)] = unit(rng);
          w.set(r, xs[static_cast<std::size_t>(r)]);
        }
      }
      const std::vector<double> zs = dense_solve(bmat, xs, m);
      eta.ftran(w);
      std::vector<char> listed(static_cast<std::size_t>(m), 0);
      for (const std::int32_t r : w.pattern()) {
        listed[static_cast<std::size_t>(r)] = 1;
      }
      for (int r = 0; r < m; ++r) {
        const double want = zs[static_cast<std::size_t>(r)];
        EXPECT_NEAR(w[r], want, 1e-12 * (1.0 + std::abs(want)))
            << "instance " << inst << " updates " << updates;
        if (w[r] != 0.0) {
          EXPECT_TRUE(listed[static_cast<std::size_t>(r)])
              << "instance " << inst << " row " << r;
        }
      }
      // btran solves the transposed system.
      std::vector<double> bt(bmat.size());
      for (int r = 0; r < m; ++r) {
        for (int c = 0; c < m; ++c) {
          bt[static_cast<std::size_t>(c) * static_cast<std::size_t>(m) +
             static_cast<std::size_t>(r)] =
              bmat[static_cast<std::size_t>(r) * static_cast<std::size_t>(m) +
                   static_cast<std::size_t>(c)];
        }
      }
      const std::vector<double> u = dense_solve(bt, x, m);
      std::vector<double> y = x;
      eta.btran(y);
      for (int r = 0; r < m; ++r) {
        const double want = u[static_cast<std::size_t>(r)];
        EXPECT_NEAR(y[static_cast<std::size_t>(r)], want,
                    1e-12 * (1.0 + std::abs(want)))
            << "instance " << inst << " updates " << updates;
      }
    };
    check(0);
    // Product-form updates: a random sparse entering column replaces the
    // basis column of the row where its FTRANed value is largest.
    for (int up = 1; up <= 3; ++up) {
      std::vector<std::pair<int, double>> col;
      for (int r = 0; r < m; ++r) {
        if (rng() % 2 == 0) col.emplace_back(r, 1.0 + unit(rng));
      }
      if (col.empty()) col.emplace_back(0, 1.5);
      load(col);
      int leave = w.pattern()[0];
      for (const std::int32_t r : w.pattern()) {
        if (std::abs(w[r]) > std::abs(w[leave])) leave = r;
      }
      if (std::abs(w[leave]) < 0.5) break;  // keep B well conditioned
      eta.push(w, leave);
      place(col, leave);
      EXPECT_EQ(eta.etas(), static_cast<std::size_t>(m + up));
      check(up);
    }
  }
}

// A warm basis that names two identical columns: the second is linearly
// dependent on the first, so the factorization must displace it to
// nonbasic-at-lower and give its row to that row's logical. The repaired
// basis is already optimal here, so the result shows the repair itself:
// no pivot, the snapshot has x0 on row 0 and row 1's slack, x1 sits at 0,
// and the warm start counts as not applied. The dense oracle agrees.
TEST(RevisedLp, DependentWarmColumnIsDisplacedToItsRowsLogical) {
  lp::LpProblem p;
  const int x0 = p.add_variable(0.0, 1.0, -1.0);
  const int x1 = p.add_variable(0.0, 1.0, -1.0);
  p.add_constraint({{x0, 1.0}, {x1, 1.0}}, lp::Relation::kLe, 1.0);
  p.add_constraint({{x0, 1.0}, {x1, 1.0}}, lp::Relation::kLe, 2.0);
  lp::BasisSnapshot warm;
  warm.row_basic = {x0, x1};
  warm.at_upper = {0, 0};
  lp::SolverOptions opts;
  opts.warm = &warm;
  opts.want_basis = true;
  const lp::LpResult res = lp::solve(p, opts);
  const lp::LpResult dense = lp::solve_dense(p);
  ASSERT_EQ(res.status, dense.status);
  ASSERT_EQ(res.status, lp::Status::kOptimal);
  EXPECT_NEAR(res.objective, dense.objective, 1e-9);
  EXPECT_FALSE(res.warm_applied);
  EXPECT_EQ(res.iterations, 0);
  EXPECT_EQ(res.refactorizations, 1);
  ASSERT_TRUE(res.basis.has_value());
  EXPECT_EQ(res.basis->row_basic, (std::vector<std::int32_t>{x0, -1}));
  EXPECT_EQ(res.x[static_cast<std::size_t>(x1)], 0.0);
  EXPECT_EQ(res.x[static_cast<std::size_t>(x0)], 1.0);
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

/// The ledger's small suite, whose p=3 cover LPs the tests below solve.
constexpr const char* kSmallSuite[] = {"s27",     "tav",  "dk14",
                                       "donfile", "dk16", "s386"};

/// One small-suite circuit's p=3 table (impl semantics), the 48 hardest
/// rows Algorithm 1 starts its LP from, the 48 easiest (the longest cases,
/// whose LP columns fill in under FTRAN), and the ledger's q for it.
struct SmallSuiteLps {
  DetectabilityTable table;
  std::vector<std::uint32_t> rows;
  std::vector<std::uint32_t> easy_rows;
  int q_max = -1;
};

SmallSuiteLps small_suite_lps(const char* name) {
  constexpr int kLatency = 3;
  constexpr std::size_t kRows = 48;
  SmallSuiteLps s;
  s.q_max = ledger_q(name, kLatency);
  const fsm::FsmCircuit c = fsm::synthesize_fsm(
      benchdata::suite_fsm(name), fsm::EncodingKind::kBinary, {});
  core::ExtractOptions ex;
  ex.latency = kLatency;
  ex.threads = 1;
  s.table = core::extract_cases(c, sim::enumerate_stuck_at(c.netlist), ex);
  const core::SolverContext ctx(s.table);
  const auto k = static_cast<std::ptrdiff_t>(
      std::min(kRows, s.table.cases.size()));
  s.rows.assign(ctx.hard_order.begin(), ctx.hard_order.begin() + k);
  s.easy_rows.assign(ctx.hard_order.end() - k, ctx.hard_order.end());
  return s;
}

// The real cover LPs: for every circuit of the ledger's small suite at
// p=3, the Statement-4 relaxation over the 48 hardest rows at every q from
// 1 to the ledger's q, solved cold with lp::solve, warm from q-1's basis,
// and with the dense oracle. Statuses must match, objectives agree, and
// the revised points satisfy every row. This is the check lp::solve runs
// on every solve in builds without NDEBUG.
TEST(RevisedLp, MatchesDenseOnSmallSuiteCoverLps) {
  for (const char* name : kSmallSuite) {
    const SmallSuiteLps s = small_suite_lps(name);
    const int q_max = s.q_max;
    ASSERT_GT(q_max, 0) << name << " missing from " << CED_LEDGER_PATH;
    const DetectabilityTable& t = s.table;
    const std::vector<std::uint32_t>& rows = s.rows;

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

/// 64 bits of a digest over the result's bits: every x value's bit
/// pattern, then the basis snapshot (its row assignment and at-upper
/// flags) when there is one.
std::uint64_t result_digest(const lp::LpResult& r) {
  Digest128 d;
  d.absorb(static_cast<std::uint64_t>(r.x.size()));
  for (const double v : r.x) d.absorb(v);
  d.absorb(static_cast<std::uint64_t>(r.basis.has_value()));
  if (r.basis) {
    for (const std::int32_t b : r.basis->row_basic) {
      d.absorb(static_cast<std::uint64_t>(static_cast<std::uint32_t>(b)));
    }
    for (const std::uint8_t u : r.basis->at_upper) {
      d.absorb(static_cast<std::uint64_t>(u));
    }
  }
  return d.a;
}

/// One solve in kPivotPins' format: circuit, q, mode, status, iterations,
/// phase-1 iterations, refactorizations, warm_applied, result digest.
std::string pin_line(const char* name, int q, const char* mode,
                     const lp::LpResult& r) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%s %d %s %d %d %d %d %d %016llx", name, q,
                mode, static_cast<int>(r.status), r.iterations,
                r.phase1_iterations, r.refactorizations,
                r.warm_applied ? 1 : 0,
                static_cast<unsigned long long>(result_digest(r)));
  return buf;
}

/// Every small-suite cover LP over the hardest (or the easiest) rows at
/// q = 1 to the ledger's q, solved cold, warm from q-1's cold basis, and
/// cold with refactor_interval = 4 (so most pivots sit between mid-phase
/// refactorizations); one pin_line per solve.
std::vector<std::string> pivot_paths(bool easy_rows) {
  std::vector<std::string> got;
  for (const char* name : kSmallSuite) {
    const SmallSuiteLps s = small_suite_lps(name);
    EXPECT_GT(s.q_max, 0) << name << " missing from " << CED_LEDGER_PATH;
    std::optional<core::LpBasisMemo> memo;
    for (int q = 1; q <= s.q_max; ++q) {
      const core::LpFormulation f =
          core::build_lp(s.table, easy_rows ? s.easy_rows : s.rows, q);
      lp::SolverOptions opts;
      opts.want_basis = true;
      const lp::LpResult cold = lp::solve(f.problem, opts);
      got.push_back(pin_line(name, q, "cold", cold));
      if (memo) {
        const lp::BasisSnapshot snap = core::map_basis_to(*memo, f);
        lp::SolverOptions warm_opts = opts;
        warm_opts.warm = &snap;
        got.push_back(
            pin_line(name, q, "warm", lp::solve(f.problem, warm_opts)));
      }
      lp::SolverOptions rf_opts = opts;
      rf_opts.refactor_interval = 4;
      got.push_back(pin_line(name, q, "rf4", lp::solve(f.problem, rf_opts)));
      memo.reset();
      if (cold.basis) {
        memo = core::LpBasisMemo{f.var_key, f.row_key, *cold.basis};
      }
    }
  }
  return got;
}

void expect_pins(const std::vector<std::string>& got,
                 std::span<const char* const> want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "solve " << i;
  }
}

// The pivot path of every small-suite cover LP, pinned: the LPs of
// MatchesDenseOnSmallSuiteCoverLps, each solved cold, warm from q-1's cold
// basis, and cold with refactor_interval = 4 (so most pivots sit between
// mid-phase refactorizations). A change to the simplex that moves one
// pivot, reorders one floating-point sum or drops one eta entry changes a
// pivot count or a digest of the result's bits here. Regenerate the table
// only with a change that is meant to move the LP's path, and say why.
TEST(RevisedLp, CoverLpPivotPathsArePinned) {
  // circuit q mode status iterations phase1 refactorizations warm digest
  const char* const kPivotPins[] = {
      "s27 1 cold 0 22 18 1 0 598db55283d5b00a",
      "s27 1 rf4 0 22 18 3 0 598db55283d5b00a",
      "s27 2 cold 0 26 18 1 0 ead98527f326e6f3",
      "s27 2 warm 0 4 0 1 1 ead98527f326e6f3",
      "s27 2 rf4 0 26 18 4 0 ead98527f326e6f3",
      "s27 3 cold 0 30 18 1 0 169e440dcec820f9",
      "s27 3 warm 0 4 0 1 1 169e440dcec820f9",
      "s27 3 rf4 0 30 18 5 0 169e440dcec820f9",
      "tav 1 cold 0 60 54 1 0 230f80147b3e7eeb",
      "tav 1 rf4 0 60 54 4 0 230f80147b3e7eeb",
      "tav 2 cold 0 66 54 1 0 f1d476601c2936a9",
      "tav 2 warm 0 6 0 1 1 f1d476601c2936a9",
      "tav 2 rf4 0 66 54 5 0 f1d476601c2936a9",
      "tav 3 cold 0 72 54 1 0 d5d334acfb2d089c",
      "tav 3 warm 0 6 0 1 1 d5d334acfb2d089c",
      "tav 3 rf4 0 72 54 7 0 d5d334acfb2d089c",
      "tav 4 cold 0 78 54 1 0 a460fb4032d6597b",
      "tav 4 warm 0 6 0 1 1 a460fb4032d6597b",
      "tav 4 rf4 0 78 54 8 0 a460fb4032d6597b",
      "dk14 1 cold 0 64 56 1 0 c9c7fd9b5eadff04",
      "dk14 1 rf4 0 64 56 5 0 c9c7fd9b5eadff04",
      "dk14 2 cold 0 72 56 1 0 418ab4ef31e9a19a",
      "dk14 2 warm 0 8 0 1 1 418ab4ef31e9a19a",
      "dk14 2 rf4 0 72 56 7 0 418ab4ef31e9a19a",
      "dk14 3 cold 0 80 56 1 0 5e16a7e73e5e4a07",
      "dk14 3 warm 0 8 0 1 1 5e16a7e73e5e4a07",
      "dk14 3 rf4 0 80 56 9 0 5e16a7e73e5e4a07",
      "dk14 4 cold 0 88 56 1 0 b637009d40ece15a",
      "dk14 4 warm 0 8 0 1 1 b637009d40ece15a",
      "dk14 4 rf4 0 88 56 11 0 b637009d40ece15a",
      "donfile 1 cold 0 60 54 1 0 230f80147b3e7eeb",
      "donfile 1 rf4 0 60 54 4 0 230f80147b3e7eeb",
      "donfile 2 cold 0 66 54 1 0 f1d476601c2936a9",
      "donfile 2 warm 0 6 0 1 1 f1d476601c2936a9",
      "donfile 2 rf4 0 66 54 5 0 f1d476601c2936a9",
      "donfile 3 cold 0 72 54 1 0 d5d334acfb2d089c",
      "donfile 3 warm 0 6 0 1 1 d5d334acfb2d089c",
      "donfile 3 rf4 0 72 54 7 0 d5d334acfb2d089c",
      "donfile 4 cold 0 78 54 1 0 a460fb4032d6597b",
      "donfile 4 warm 0 6 0 1 1 a460fb4032d6597b",
      "donfile 4 rf4 0 78 54 8 0 a460fb4032d6597b",
      "donfile 5 cold 0 84 54 1 0 5eb1a14718fc8bd1",
      "donfile 5 warm 0 6 0 1 1 5eb1a14718fc8bd1",
      "donfile 5 rf4 0 84 54 10 0 5eb1a14718fc8bd1",
      "dk16 1 cold 0 64 56 1 0 c9c7fd9b5eadff04",
      "dk16 1 rf4 0 64 56 5 0 c9c7fd9b5eadff04",
      "dk16 2 cold 0 72 56 1 0 418ab4ef31e9a19a",
      "dk16 2 warm 0 8 0 1 1 418ab4ef31e9a19a",
      "dk16 2 rf4 0 72 56 7 0 418ab4ef31e9a19a",
      "dk16 3 cold 0 80 56 1 0 5e16a7e73e5e4a07",
      "dk16 3 warm 0 8 0 1 1 5e16a7e73e5e4a07",
      "dk16 3 rf4 0 80 56 9 0 5e16a7e73e5e4a07",
      "dk16 4 cold 0 88 56 1 0 b637009d40ece15a",
      "dk16 4 warm 0 8 0 1 1 b637009d40ece15a",
      "dk16 4 rf4 0 88 56 11 0 b637009d40ece15a",
      "dk16 5 cold 0 96 56 1 0 25d845bef435c33d",
      "dk16 5 warm 0 8 0 1 1 25d845bef435c33d",
      "dk16 5 rf4 0 96 56 13 0 25d845bef435c33d",
      "s386 1 cold 0 70 59 1 0 9afa592186bac2e8",
      "s386 1 rf4 0 70 59 6 0 9afa592186bac2e8",
      "s386 2 cold 0 81 59 1 0 35b07212e705888f",
      "s386 2 warm 0 11 0 1 1 35b07212e705888f",
      "s386 2 rf4 0 81 59 9 0 35b07212e705888f",
      "s386 3 cold 0 92 59 1 0 0e1304af2d4ac549",
      "s386 3 warm 0 11 0 1 1 0e1304af2d4ac549",
      "s386 3 rf4 0 92 59 12 0 0e1304af2d4ac549",
      "s386 4 cold 0 103 59 1 0 78046c957b5d7566",
      "s386 4 warm 0 11 0 1 1 78046c957b5d7566",
      "s386 4 rf4 0 103 59 14 0 78046c957b5d7566",
      "s386 5 cold 0 114 59 2 0 ea51330714281dc4",
      "s386 5 warm 0 11 0 1 1 ea51330714281dc4",
      "s386 5 rf4 0 114 59 17 0 ea51330714281dc4",
      "s386 6 cold 0 125 59 2 0 e823bbfce04cf7cb",
      "s386 6 warm 0 11 0 1 1 e823bbfce04cf7cb",
      "s386 6 rf4 0 125 59 20 0 e823bbfce04cf7cb",
  };
  expect_pins(pivot_paths(/*easy_rows=*/false), kPivotPins);
}

// The same pins over each circuit's 48 easiest rows: the longest cases,
// whose LP columns fill in under FTRAN, so the order of every eta's
// entries and of every ratio-test scan shows in the result's bits (the
// hardest rows are mostly single-step cases and barely fill in). Pinned
// from the dense eta file's solves.
TEST(RevisedLp, CoverLpPivotPathsArePinnedOnLongCases) {
  // circuit q mode status iterations phase1 refactorizations warm digest
  const char* const kPivotPins[] = {
      "s27 1 cold 0 22 18 1 0 598db55283d5b00a",
      "s27 1 rf4 0 22 18 3 0 598db55283d5b00a",
      "s27 2 cold 0 26 18 1 0 ead98527f326e6f3",
      "s27 2 warm 0 4 0 1 1 ead98527f326e6f3",
      "s27 2 rf4 0 26 18 4 0 ead98527f326e6f3",
      "s27 3 cold 0 30 18 1 0 169e440dcec820f9",
      "s27 3 warm 0 4 0 1 1 169e440dcec820f9",
      "s27 3 rf4 0 30 18 5 0 169e440dcec820f9",
      "tav 1 cold 0 61 55 1 0 9ac5b22442850a95",
      "tav 1 rf4 0 61 55 4 0 9ac5b22442850a95",
      "tav 2 cold 0 67 55 1 0 d6125b813b799f5c",
      "tav 2 warm 0 6 0 1 1 d6125b813b799f5c",
      "tav 2 rf4 0 67 55 6 0 d6125b813b799f5c",
      "tav 3 cold 0 73 55 1 0 39ee89fe5788f31e",
      "tav 3 warm 0 6 0 1 1 39ee89fe5788f31e",
      "tav 3 rf4 0 73 55 7 0 39ee89fe5788f31e",
      "tav 4 cold 0 79 55 1 0 36a02c4404085225",
      "tav 4 warm 0 6 0 1 1 36a02c4404085225",
      "tav 4 rf4 0 79 55 9 0 36a02c4404085225",
      "dk14 1 cold 0 67 59 1 0 53cd2214a17ed45e",
      "dk14 1 rf4 0 68 59 7 0 fcbab3b0ce871e52",
      "dk14 2 cold 0 79 69 1 0 23a747a635217826",
      "dk14 2 warm 0 6 0 1 1 ec8cef0899ba2037",
      "dk14 2 rf4 0 86 69 12 0 78b48f20f6b4e40f",
      "dk14 3 cold 0 90 69 1 0 d2cbc3eea8e6b824",
      "dk14 3 warm 0 9 0 1 1 aa5f3d06eebe6ff2",
      "dk14 3 rf4 0 91 69 13 0 73ff673635041c4f",
      "dk14 4 cold 0 97 69 1 0 4bf112fa0399613f",
      "dk14 4 warm 0 7 0 1 1 f74a7d67f3ac7195",
      "dk14 4 rf4 0 104 69 17 0 b2bb4d5983e88d7d",
      "donfile 1 cold 0 63 56 1 0 2b2150e927635c1a",
      "donfile 1 rf4 0 63 56 5 0 2b2150e927635c1a",
      "donfile 2 cold 0 70 56 1 0 38c50c2ce494fcfd",
      "donfile 2 warm 0 6 0 1 1 e7dce3fd1d86da2e",
      "donfile 2 rf4 0 70 56 7 0 38c50c2ce494fcfd",
      "donfile 3 cold 0 76 56 1 0 c85b3f86eb8a5f85",
      "donfile 3 warm 0 7 0 1 1 c85b3f86eb8a5f85",
      "donfile 3 rf4 0 76 56 8 0 c85b3f86eb8a5f85",
      "donfile 4 cold 0 82 56 1 0 d3229b7b8326031c",
      "donfile 4 warm 0 7 0 1 1 d3229b7b8326031c",
      "donfile 4 rf4 0 82 56 10 0 d3229b7b8326031c",
      "donfile 5 cold 0 88 56 1 0 57c615d9a842f474",
      "donfile 5 warm 0 7 0 1 1 57c615d9a842f474",
      "donfile 5 rf4 0 88 56 11 0 57c615d9a842f474",
      "dk16 1 cold 0 70 57 1 0 b3c80f6dcf5bd403",
      "dk16 1 rf4 0 70 57 6 0 4c6ff255a27b6b97",
      "dk16 2 cold 0 78 57 1 0 5b970439fec9ac0c",
      "dk16 2 warm 0 11 0 1 1 3429902cd2103104",
      "dk16 2 rf4 0 78 57 8 0 2c55cdc1327e18b5",
      "dk16 3 cold 0 86 57 1 0 d383ca1d178ff886",
      "dk16 3 warm 0 12 0 1 1 0e3af8d150d9d747",
      "dk16 3 rf4 0 86 57 10 0 3b3c330b019bbc56",
      "dk16 4 cold 0 94 57 1 0 90904f706042dc08",
      "dk16 4 warm 0 13 0 1 1 a7ca2d32917c0d55",
      "dk16 4 rf4 0 94 57 12 0 89d6ae6a6b3dc113",
      "dk16 5 cold 0 102 57 1 0 dfcd3a27b5373402",
      "dk16 5 warm 0 14 0 1 1 9d7ddb81a746fb57",
      "dk16 5 rf4 0 102 57 14 0 7da8926377e92f83",
      "s386 1 cold 0 106 64 1 0 c9e99a39f4e0d400",
      "s386 1 rf4 0 109 65 18 0 f91d38dc04793940",
      "s386 2 cold 0 173 89 3 0 faea931a2d6628c3",
      "s386 2 warm 0 16 0 1 1 626c01a8c9956a83",
      "s386 2 rf4 0 160 91 30 0 ec8be8928c27159a",
      "s386 3 cold 0 218 90 3 0 093d689efa5d1e70",
      "s386 3 warm 0 13 0 1 1 671b49f27cbaecc7",
      "s386 3 rf4 0 202 90 41 0 5f1deadd2f29a560",
      "s386 4 cold 0 247 90 4 0 36335c926f4d1de3",
      "s386 4 warm 0 16 0 1 1 22441ad22a4443c0",
      "s386 4 rf4 0 210 90 43 0 5069e2edac39e89b",
      "s386 5 cold 0 294 90 4 0 6f4cd8365ee83b11",
      "s386 5 warm 0 49 0 1 1 c7b50ddec134ce9a",
      "s386 5 rf4 0 267 90 58 0 75b270e495bee2d3",
      "s386 6 cold 0 276 90 4 0 9de707e3149d7405",
      "s386 6 warm 0 51 0 1 1 7dd5334be1241a89",
      "s386 6 rf4 0 309 90 68 0 2035e9f21aff46c8",
  };
  expect_pins(pivot_paths(/*easy_rows=*/true), kPivotPins);
}

}  // namespace
}  // namespace ced
