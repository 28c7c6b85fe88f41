#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
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
/// bounded variables, composite phase 1 and Bland anti-cycling. The
/// constraints are stored as compressed sparse rows: one flat term array
/// and the offset where each row's terms start.
class LpProblem {
 public:
  /// One term of a constraint: (variable index, coefficient).
  using Term = std::pair<int, double>;

  /// Adds a variable with bounds [lower, upper]; returns its index.
  int add_variable(double lower, double upper, double objective = 0.0);

  /// Adds a constraint sum(coeff * var) rel rhs, copying `terms` to the
  /// end of the term array. Terms may repeat a variable; coefficients are
  /// accumulated. Throws std::invalid_argument for an unknown variable.
  void add_constraint(std::span<const Term> terms, Relation rel, double rhs);

  void set_objective_sense(Objective sense) { sense_ = sense; }

  int num_variables() const { return static_cast<int>(lower_.size()); }
  int num_constraints() const { return static_cast<int>(rhs_.size()); }

  // Internal accessors used by the solver.
  const std::vector<double>& lower() const { return lower_; }
  const std::vector<double>& upper() const { return upper_; }
  const std::vector<double>& objective() const { return obj_; }
  Objective sense() const { return sense_; }
  /// The terms of constraint i, in the order they were added.
  std::span<const Term> row(int i) const {
    const std::size_t at = row_start_[static_cast<std::size_t>(i)];
    return {terms_.data() + at,
            row_start_[static_cast<std::size_t>(i) + 1] - at};
  }
  const std::vector<Relation>& relations() const { return rels_; }
  const std::vector<double>& rhs() const { return rhs_; }

 private:
  std::vector<double> lower_, upper_, obj_;
  /// Row i's terms are terms_[row_start_[i], row_start_[i + 1]).
  std::vector<Term> terms_;
  std::vector<std::size_t> row_start_{0};
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
  /// phase 1 repairs whatever infeasibility remains. A warm start changes
  /// the pivot path, never the optimum.
  const BasisSnapshot* warm = nullptr;
  /// Fill LpResult::basis with the optimal basis.
  bool want_basis = false;
  /// Pivots between basis refactorizations: the eta file is
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
  std::vector<double> x = {};
  /// Simplex pivots consumed (both phases), whatever the outcome — the
  /// budget accounting callers report in resilience diagnostics.
  int iterations = 0;
  /// Pivots spent inside the composite phase 1 (subset of `iterations`).
  /// A successful warm start shows up as this dropping
  /// to the handful of rows the previous basis did not already satisfy.
  int phase1_iterations = 0;
  /// Basis refactorizations performed.
  int refactorizations = 0;
  /// True when a caller-provided warm basis was structurally applied (its
  /// dimensions matched and the mapped basis survived factorization).
  bool warm_applied = false;
  /// The optimal basis when SolverOptions::want_basis was set and solve
  /// reached optimality; nullopt otherwise.
  std::optional<BasisSnapshot> basis = {};
};

/// Solves the LP with the sparse revised simplex (revised.cpp).
/// Deterministic: the same problem and options give the same pivots and
/// the same result bits.
LpResult solve(const LpProblem& p, const SolverOptions& opts = {});

}  // namespace ced::lp
