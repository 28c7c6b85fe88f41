#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace ced::lp {

/// Relation of one linear constraint.
enum class Relation { kLe, kGe, kEq };

enum class Objective { kMinimize, kMaximize };

enum class Status { kOptimal, kInfeasible, kUnbounded, kIterLimit, kTimeLimit };

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// A linear program over bounded variables:
///   optimize  c'x   s.t.  each constraint,  l <= x <= u.
///
/// Built incrementally; solved by `solve`, a sparse revised simplex with
/// bounded variables, composite phase 1 and Bland anti-cycling.
/// `solve_dense` keeps the original dense two-phase tableau as a
/// reference oracle.
class LpProblem {
 public:
  /// Adds a variable with bounds [lower, upper]; returns its index.
  int add_variable(double lower, double upper, double objective = 0.0);

  /// Adds a constraint sum(coeff * var) rel rhs. Terms may repeat a
  /// variable; coefficients are accumulated.
  void add_constraint(std::vector<std::pair<int, double>> terms, Relation rel,
                      double rhs);

  void set_objective_sense(Objective sense) { sense_ = sense; }

  int num_variables() const { return static_cast<int>(lower_.size()); }
  int num_constraints() const { return static_cast<int>(rhs_.size()); }

  // Internal accessors used by the solver.
  const std::vector<double>& lower() const { return lower_; }
  const std::vector<double>& upper() const { return upper_; }
  const std::vector<double>& objective() const { return obj_; }
  Objective sense() const { return sense_; }
  const std::vector<std::vector<std::pair<int, double>>>& rows() const {
    return rows_;
  }
  const std::vector<Relation>& relations() const { return rels_; }
  const std::vector<double>& rhs() const { return rhs_; }

 private:
  std::vector<double> lower_, upper_, obj_;
  std::vector<std::vector<std::pair<int, double>>> rows_;
  std::vector<Relation> rels_;
  std::vector<double> rhs_;
  Objective sense_ = Objective::kMinimize;
};

/// A basis of the revised solver, expressed in the problem's own indexing
/// so callers can carry it across *related* problems (core/ilp.cpp maps it
/// between formulations by variable/constraint identity). Logical columns
/// (slack/surplus/artificial) are implied: a row without a problem
/// variable basic in it has its logical basic.
struct BasisSnapshot {
  /// Per constraint: index of the problem variable basic in that row, or
  /// -1 when the row's logical is basic.
  std::vector<std::int32_t> row_basic;
  /// Per problem variable: 1 when nonbasic at its upper bound, else 0.
  std::vector<std::uint8_t> at_upper;
};

struct SolverOptions {
  int max_iterations = 200000;
  /// Zero tolerance of pricing and the ratio test. Must be positive: the
  /// revised solver's ratio test scans only the entering column's nonzero
  /// rows, which is the same as scanning every row only when eps > 0.
  double eps = 1e-9;
  /// Optional warm-start basis for the revised solver, already mapped to
  /// THIS problem's variable/constraint indexing (see core/ilp.cpp for the
  /// key-based cross-problem mapping). Rows whose remembered basic
  /// variable no longer exists fall back to their logical; the composite
  /// phase 1 repairs whatever infeasibility remains. solve_dense
  /// ignores it — a warm start changes the pivot path, never the optimum.
  const BasisSnapshot* warm = nullptr;
  /// Fill LpResult::basis with the optimal basis (solve only).
  bool want_basis = false;
  /// Pivots between basis refactorizations (solve only): the eta file is
  /// rebuilt from the current basis every this-many pivots to keep rounding
  /// error from accumulating through the product-form updates.
  int refactor_interval = 64;
  /// Absolute wall-clock deadline checked cooperatively every few hundred
  /// pivots; when it passes, the solve stops with Status::kTimeLimit
  /// instead of running to optimality. Defaults to "never".
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Observability sinks: a span per solve plus pivot counters. Write-only
  /// diagnostics — the pivot sequence and the result are byte-identical
  /// with sinks set or null.
  obs::Sinks obs;
};

struct LpResult {
  Status status = Status::kInfeasible;
  double objective = 0.0;
  /// Values of the problem variables (size = num_variables()) when
  /// status is kOptimal.
  std::vector<double> x;
  /// Simplex pivots consumed (both phases), whatever the outcome — the
  /// budget accounting callers report in resilience diagnostics.
  int iterations = 0;
  /// Pivots spent inside the composite phase 1 (subset of `iterations`;
  /// solve only). A successful warm start shows up as this dropping
  /// to the handful of rows the previous basis did not already satisfy.
  int phase1_iterations = 0;
  /// Basis refactorizations performed (solve only).
  int refactorizations = 0;
  /// True when a caller-provided warm basis was structurally applied (its
  /// dimensions matched and the mapped basis survived factorization).
  bool warm_applied = false;
  /// The optimal basis when SolverOptions::want_basis was set and solve
  /// reached optimality; nullopt otherwise (and always from solve_dense).
  std::optional<BasisSnapshot> basis;
};

/// Solves the LP with the sparse revised simplex (revised.cpp).
/// Deterministic. Builds without NDEBUG re-solve every problem with
/// solve_dense and assert agreement on status and objective.
LpResult solve(const LpProblem& p, const SolverOptions& opts = {});

/// Reference oracle: the dense two-phase tableau simplex with bounded
/// variables. Agrees with `solve` on feasibility and on the optimal
/// objective; the optimal *vertex* may differ on degenerate problems
/// (either is a correct optimum). Ignores warm/want_basis/obs and never
/// reports phase-1 or refactorization counts. Tests and solve's debug
/// cross-check call it; nothing dispatches to it.
LpResult solve_dense(const LpProblem& p, const SolverOptions& opts = {});

}  // namespace ced::lp
