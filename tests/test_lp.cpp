#include "lp/simplex.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "lp/sparse.hpp"
#include "oracle/dense_simplex.hpp"

namespace ced::lp {
namespace {

using Terms = std::vector<LpProblem::Term>;

/// Solves `p` with lp::solve and compares the result with the dense
/// tableau oracle, and the solver's standard-form matrix with the dense
/// one.
LpResult solve_checked(const LpProblem& p) {
  EXPECT_TRUE(standard_form_matches_dense(p));
  const LpResult r = solve(p);
  EXPECT_TRUE(agrees_with_dense(p, r, solve_dense(p)));
  return r;
}

/// Column j of `a` as (row, value) pairs.
std::vector<std::pair<int, double>> column_of(const CscMatrix& a, int j) {
  std::vector<std::pair<int, double>> out;
  for (const CscMatrix::Entry& e : a.column(j)) out.emplace_back(e.row, e.value);
  return out;
}

TEST(Simplex, TrivialBoundsOnly) {
  LpProblem p;
  const int x = p.add_variable(0, 10, 1.0);
  p.set_objective_sense(Objective::kMaximize);
  const LpResult r = solve_checked(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(x)], 10.0, 1e-7);
  EXPECT_NEAR(r.objective, 10.0, 1e-7);
}

TEST(Simplex, ClassicTwoVarMax) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0 -> (4,0), z = 12.
  LpProblem p;
  const int x = p.add_variable(0, kInfinity, 3.0);
  const int y = p.add_variable(0, kInfinity, 2.0);
  p.add_constraint(Terms{{x, 1}, {y, 1}}, Relation::kLe, 4);
  p.add_constraint(Terms{{x, 1}, {y, 3}}, Relation::kLe, 6);
  p.set_objective_sense(Objective::kMaximize);
  const LpResult r = solve_checked(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.objective, 12.0, 1e-6);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(x)], 4.0, 1e-6);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(y)], 0.0, 1e-6);
}

TEST(Simplex, MinimizationWithGe) {
  // min 2x + 3y s.t. x + y >= 10, x <= 6 -> x=6, y=4, z=24.
  LpProblem p;
  const int x = p.add_variable(0, 6, 2.0);
  const int y = p.add_variable(0, kInfinity, 3.0);
  p.add_constraint(Terms{{x, 1}, {y, 1}}, Relation::kGe, 10);
  const LpResult r = solve_checked(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.objective, 24.0, 1e-6);
}

TEST(Simplex, EqualityConstraint) {
  // min x + y s.t. x + 2y = 4, 0 <= x,y <= 3 -> y=2, x=0, z=2.
  LpProblem p;
  const int x = p.add_variable(0, 3, 1.0);
  const int y = p.add_variable(0, 3, 1.0);
  p.add_constraint(Terms{{x, 1}, {y, 2}}, Relation::kEq, 4);
  const LpResult r = solve_checked(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-6);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(y)], 2.0, 1e-6);
}

TEST(Simplex, DetectsInfeasible) {
  LpProblem p;
  const int x = p.add_variable(0, 1, 1.0);
  p.add_constraint(Terms{{x, 1}}, Relation::kGe, 2);
  EXPECT_EQ(solve_checked(p).status, Status::kInfeasible);
}

TEST(Simplex, DetectsInfeasibleSystem) {
  LpProblem p;
  const int x = p.add_variable(0, kInfinity, 1.0);
  const int y = p.add_variable(0, kInfinity, 1.0);
  p.add_constraint(Terms{{x, 1}, {y, 1}}, Relation::kLe, 1);
  p.add_constraint(Terms{{x, 1}, {y, 1}}, Relation::kGe, 3);
  EXPECT_EQ(solve_checked(p).status, Status::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  LpProblem p;
  const int x = p.add_variable(0, kInfinity, 1.0);
  p.set_objective_sense(Objective::kMaximize);
  p.add_constraint(Terms{{x, -1}}, Relation::kLe, 0);  // x >= 0, no upper bound
  EXPECT_EQ(solve_checked(p).status, Status::kUnbounded);
}

TEST(Simplex, NegativeLowerBounds) {
  // min x s.t. x >= -5 -> x = -5.
  LpProblem p;
  const int x = p.add_variable(-5, 5, 1.0);
  const LpResult r = solve_checked(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(x)], -5.0, 1e-7);
}

TEST(Simplex, NegativeRhsRowsHandled) {
  // min x + y s.t. -x - y <= -4  (i.e. x + y >= 4), x,y in [0,3].
  LpProblem p;
  const int x = p.add_variable(0, 3, 1.0);
  const int y = p.add_variable(0, 3, 1.0);
  p.add_constraint(Terms{{x, -1}, {y, -1}}, Relation::kLe, -4);
  const LpResult r = solve_checked(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.objective, 4.0, 1e-6);
}

TEST(Simplex, UpperBoundedVariablesBindAtBounds) {
  // max x + y s.t. x + y <= 10, x <= 3, y <= 4 (bounds) -> z = 7.
  LpProblem p;
  const int x = p.add_variable(0, 3, 1.0);
  const int y = p.add_variable(0, 4, 1.0);
  p.add_constraint(Terms{{x, 1}, {y, 1}}, Relation::kLe, 10);
  p.set_objective_sense(Objective::kMaximize);
  const LpResult r = solve_checked(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.objective, 7.0, 1e-6);
}

TEST(Simplex, DegenerateDoesNotCycle) {
  // A classic degenerate instance (Beale-like); must terminate optimally.
  LpProblem p;
  const int x1 = p.add_variable(0, kInfinity, -0.75);
  const int x2 = p.add_variable(0, kInfinity, 150);
  const int x3 = p.add_variable(0, kInfinity, -0.02);
  const int x4 = p.add_variable(0, kInfinity, 6);
  p.add_constraint(Terms{{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}},
                   Relation::kLe, 0);
  p.add_constraint(Terms{{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}},
                   Relation::kLe, 0);
  p.add_constraint(Terms{{x3, 1}}, Relation::kLe, 1);
  const LpResult r = solve_checked(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.objective, -0.05, 1e-6);
}

// Rows no cover LP builds: a variable repeated in one row (summed), terms
// that cancel to exactly 0.0 (the entry is dropped), a row with no terms,
// and >= and = rows, whose logicals are a surplus (-1) and a fixed
// artificial (+1). The standard-form matrix is pinned entry by entry.
TEST(Simplex, IrregularRowsLayOutAndSolve) {
  // min x + y + z s.t. x + y + x >= 2, y - z/2 + z/2 = 1, 0 <= 3,
  // z + x <= 4, 0 <= x,y,z <= 5 -> y = 1, x = 1/2, z = 0, z* = 1.5.
  LpProblem p;
  const int x = p.add_variable(0, 5, 1.0);
  const int y = p.add_variable(0, 5, 1.0);
  const int z = p.add_variable(0, 5, 1.0);
  p.add_constraint(Terms{{x, 1}, {y, 1}, {x, 1}}, Relation::kGe, 2);
  p.add_constraint(Terms{{y, 1}, {z, -0.5}, {z, 0.5}}, Relation::kEq, 1);
  p.add_constraint(Terms{}, Relation::kLe, 3);
  p.add_constraint(Terms{{z, 1}, {x, 1}}, Relation::kLe, 4);
  EXPECT_EQ(p.row(2).size(), 0u);
  using Col = std::vector<std::pair<int, double>>;
  const CscMatrix a = CscMatrix::standard_form(p);
  EXPECT_EQ(column_of(a, x), (Col{{0, 2.0}, {3, 1.0}}));
  EXPECT_EQ(column_of(a, y), (Col{{0, 1.0}, {1, 1.0}}));
  EXPECT_EQ(column_of(a, z), (Col{{3, 1.0}}));  // row 1's z summed to 0.0
  EXPECT_EQ(column_of(a, 3), (Col{{0, -1.0}}));  // surplus
  EXPECT_EQ(column_of(a, 4), (Col{{1, 1.0}}));   // fixed artificial
  EXPECT_EQ(column_of(a, 5), (Col{{2, 1.0}}));   // the empty row's slack
  EXPECT_EQ(column_of(a, 6), (Col{{3, 1.0}}));
  const LpResult r = solve_checked(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.objective, 1.5, 1e-7);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(x)], 0.5, 1e-7);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(y)], 1.0, 1e-7);

  // An empty row that cannot hold: 0 >= 1.
  p.add_constraint(Terms{}, Relation::kGe, 1);
  EXPECT_EQ(solve_checked(p).status, Status::kInfeasible);
}

TEST(Simplex, SolutionSatisfiesAllConstraints) {
  // Random feasible LPs: returned point must satisfy every constraint.
  ced::core::Rng rng(321);
  for (int trial = 0; trial < 20; ++trial) {
    LpProblem p;
    const int nv = 3 + static_cast<int>(rng.next() % 6);
    std::vector<int> vars;
    for (int v = 0; v < nv; ++v) {
      vars.push_back(p.add_variable(0, 1 + rng.uniform() * 4,
                                    rng.uniform() * 2 - 1));
    }
    // Constraints through a known interior point to guarantee feasibility.
    std::vector<double> x0;
    for (int v = 0; v < nv; ++v) x0.push_back(p.upper()[v] * 0.5);
    const int nc = 2 + static_cast<int>(rng.next() % 5);
    std::vector<std::vector<double>> coeffs;
    for (int c = 0; c < nc; ++c) {
      std::vector<std::pair<int, double>> terms;
      std::vector<double> row(static_cast<std::size_t>(nv), 0.0);
      double lhs = 0;
      for (int v = 0; v < nv; ++v) {
        const double a = rng.uniform() * 4 - 2;
        row[static_cast<std::size_t>(v)] = a;
        terms.emplace_back(vars[static_cast<std::size_t>(v)], a);
        lhs += a * x0[static_cast<std::size_t>(v)];
      }
      const int kind = static_cast<int>(rng.next() % 3);
      if (kind == 0) {
        p.add_constraint(terms, Relation::kLe, lhs + rng.uniform());
      } else if (kind == 1) {
        p.add_constraint(terms, Relation::kGe, lhs - rng.uniform());
      } else {
        p.add_constraint(terms, Relation::kEq, lhs);
      }
      coeffs.push_back(row);
    }
    const LpResult r = solve_checked(p);
    ASSERT_EQ(r.status, Status::kOptimal) << "trial " << trial;
    for (int c = 0; c < nc; ++c) {
      double lhs = 0;
      for (int v = 0; v < nv; ++v) {
        lhs += coeffs[static_cast<std::size_t>(c)][static_cast<std::size_t>(v)] *
               r.x[static_cast<std::size_t>(v)];
      }
      const double rhs = p.rhs()[static_cast<std::size_t>(c)];
      switch (p.relations()[static_cast<std::size_t>(c)]) {
        case Relation::kLe: EXPECT_LE(lhs, rhs + 1e-6); break;
        case Relation::kGe: EXPECT_GE(lhs, rhs - 1e-6); break;
        case Relation::kEq: EXPECT_NEAR(lhs, rhs, 1e-6); break;
      }
    }
    for (int v = 0; v < nv; ++v) {
      EXPECT_GE(r.x[static_cast<std::size_t>(v)], p.lower()[v] - 1e-9);
      EXPECT_LE(r.x[static_cast<std::size_t>(v)], p.upper()[v] + 1e-9);
    }
  }
}

TEST(LpProblem, RejectsBadInput) {
  LpProblem p;
  EXPECT_THROW(p.add_variable(2, 1), std::invalid_argument);
  EXPECT_THROW(p.add_variable(-kInfinity, 1), std::invalid_argument);
  p.add_variable(0, 1);
  EXPECT_THROW(p.add_constraint(Terms{{5, 1.0}}, Relation::kLe, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace ced::lp
