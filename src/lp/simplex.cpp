#include "lp/simplex.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "lp/revised.hpp"

namespace ced::lp {

int LpProblem::add_variable(double lower, double upper, double objective) {
  if (!(lower <= upper)) throw std::invalid_argument("bad variable bounds");
  if (!std::isfinite(lower)) {
    throw std::invalid_argument("lower bound must be finite");
  }
  lower_.push_back(lower);
  upper_.push_back(upper);
  obj_.push_back(objective);
  return static_cast<int>(lower_.size()) - 1;
}

void LpProblem::add_constraint(std::vector<std::pair<int, double>> terms,
                               Relation rel, double rhs) {
  for (const auto& [v, c] : terms) {
    (void)c;
    if (v < 0 || v >= num_variables()) {
      throw std::invalid_argument("constraint references unknown variable");
    }
  }
  rows_.push_back(std::move(terms));
  rels_.push_back(rel);
  rhs_.push_back(rhs);
}

namespace {

/// Dense tableau simplex with upper-bounded variables.
///
/// Invariants: every nonbasic variable sits at 0 in its current orientation
/// (`flipped[j]` records reflection y' = ub - y); basic columns are unit
/// vectors; all b >= 0 up to tolerance.
class Tableau {
 public:
  Tableau(int rows, int cols)
      : m_(rows), n_(cols), t_(static_cast<std::size_t>(rows) * cols, 0.0),
        b_(rows, 0.0), d_(cols, 0.0), ub_(cols, kInfinity),
        flipped_(cols, false), basis_(rows, -1) {}

  double& at(int i, int j) { return t_[static_cast<std::size_t>(i) * n_ + j]; }
  double at(int i, int j) const {
    return t_[static_cast<std::size_t>(i) * n_ + j];
  }

  int m_, n_;
  std::vector<double> t_;   // m x n coefficient tableau
  std::vector<double> b_;   // basic values
  std::vector<double> d_;   // reduced costs
  std::vector<double> ub_;  // upper bounds in current orientation
  std::vector<bool> flipped_;
  std::vector<int> basis_;  // basis_[i] = column basic in row i
  std::vector<bool> is_basic_;

  void rebuild_basic_flags() {
    is_basic_.assign(static_cast<std::size_t>(n_), false);
    for (int i = 0; i < m_; ++i) {
      if (basis_[i] >= 0) is_basic_[static_cast<std::size_t>(basis_[i])] = true;
    }
  }

  /// Reflects nonbasic column j (y' = ub - y); requires finite ub.
  void reflect_nonbasic(int j) {
    const double u = ub_[static_cast<std::size_t>(j)];
    for (int i = 0; i < m_; ++i) {
      b_[static_cast<std::size_t>(i)] -= at(i, j) * u;
      at(i, j) = -at(i, j);
    }
    d_[static_cast<std::size_t>(j)] = -d_[static_cast<std::size_t>(j)];
    flipped_[static_cast<std::size_t>(j)] = !flipped_[static_cast<std::size_t>(j)];
  }

  /// Rewrites basic row r so its basic variable is replaced by its
  /// complement (used when the leaving variable exits at its upper bound).
  void reflect_basic_row(int r) {
    const int l = basis_[static_cast<std::size_t>(r)];
    const double u = ub_[static_cast<std::size_t>(l)];
    b_[static_cast<std::size_t>(r)] = u - b_[static_cast<std::size_t>(r)];
    for (int j = 0; j < n_; ++j) {
      if (j != l) at(r, j) = -at(r, j);
    }
    flipped_[static_cast<std::size_t>(l)] = !flipped_[static_cast<std::size_t>(l)];
  }

  /// Gauss-Jordan pivot on (r, j); T[r][j] must be nonzero.
  ///
  /// The row updates are written over __restrict__ row pointers so the
  /// element-wise axpy loops vectorize (rows of t_ never alias each other
  /// for i != r). Plain mul+sub per element — no reduction, no FMA
  /// contraction — so the vectorized result is bit-identical to the scalar
  /// loop and the pivot sequence never depends on the compiler.
  void pivot(int r, int j) {
    const std::size_t n = static_cast<std::size_t>(n_);
    double* __restrict__ row_r = t_.data() + static_cast<std::size_t>(r) * n;
    const double p = row_r[static_cast<std::size_t>(j)];
    const double inv = 1.0 / p;
    for (std::size_t k = 0; k < n; ++k) row_r[k] *= inv;
    b_[static_cast<std::size_t>(r)] *= inv;
    row_r[static_cast<std::size_t>(j)] = 1.0;
    for (int i = 0; i < m_; ++i) {
      if (i == r) continue;
      double* __restrict__ row_i = t_.data() + static_cast<std::size_t>(i) * n;
      const double f = row_i[static_cast<std::size_t>(j)];
      if (f == 0.0) continue;
      for (std::size_t k = 0; k < n; ++k) row_i[k] -= f * row_r[k];
      row_i[static_cast<std::size_t>(j)] = 0.0;
      b_[static_cast<std::size_t>(i)] -= f * b_[static_cast<std::size_t>(r)];
    }
    const double fd = d_[static_cast<std::size_t>(j)];
    if (fd != 0.0) {
      double* __restrict__ d = d_.data();
      for (std::size_t k = 0; k < n; ++k) d[k] -= fd * row_r[k];
      d[static_cast<std::size_t>(j)] = 0.0;
    }
    basis_[static_cast<std::size_t>(r)] = j;
  }
};

enum class StepResult { kImproved, kOptimal, kUnbounded };

/// One simplex iteration; `bland` forces Bland's anti-cycling rule.
StepResult step(Tableau& tb, double eps, bool bland) {
  tb.rebuild_basic_flags();
  // Entering column: negative reduced cost.
  int enter = -1;
  double best = -eps;
  for (int j = 0; j < tb.n_; ++j) {
    if (tb.is_basic_[static_cast<std::size_t>(j)]) continue;
    const double dj = tb.d_[static_cast<std::size_t>(j)];
    if (dj < -eps) {
      if (bland) {
        enter = j;
        break;
      }
      if (dj < best) {
        best = dj;
        enter = j;
      }
    }
  }
  if (enter < 0) return StepResult::kOptimal;

  // Ratio test. Movement delta >= 0 of the entering variable.
  double limit = tb.ub_[static_cast<std::size_t>(enter)];
  int leave_row = -1;
  bool leave_at_upper = false;
  for (int i = 0; i < tb.m_; ++i) {
    const double w = tb.at(i, enter);
    const double bi = tb.b_[static_cast<std::size_t>(i)];
    const int l = tb.basis_[static_cast<std::size_t>(i)];
    const double ubl = tb.ub_[static_cast<std::size_t>(l)];
    if (w > eps) {
      const double ratio = bi / w;
      if (ratio < limit - 1e-12 ||
          (leave_row >= 0 && ratio < limit + 1e-12 && bland &&
           l < tb.basis_[static_cast<std::size_t>(leave_row)])) {
        limit = ratio < limit ? ratio : limit;
        leave_row = i;
        leave_at_upper = false;
      }
    } else if (w < -eps && std::isfinite(ubl)) {
      const double ratio = (ubl - bi) / (-w);
      if (ratio < limit - 1e-12 ||
          (leave_row >= 0 && ratio < limit + 1e-12 && bland &&
           l < tb.basis_[static_cast<std::size_t>(leave_row)])) {
        limit = ratio < limit ? ratio : limit;
        leave_row = i;
        leave_at_upper = true;
      }
    }
  }

  if (!std::isfinite(limit)) return StepResult::kUnbounded;

  if (leave_row < 0) {
    // Bound flip: entering variable moves to its (finite) upper bound.
    tb.reflect_nonbasic(enter);
    return StepResult::kImproved;
  }

  if (leave_at_upper) tb.reflect_basic_row(leave_row);
  tb.pivot(leave_row, enter);
  return StepResult::kImproved;
}

double phase_objective(const Tableau& tb, const std::vector<double>& cost) {
  double z = 0.0;
  for (int i = 0; i < tb.m_; ++i) {
    const int l = tb.basis_[static_cast<std::size_t>(i)];
    double c = cost[static_cast<std::size_t>(l)];
    if (tb.flipped_[static_cast<std::size_t>(l)]) c = -c;  // oriented cost sign
    z += c * tb.b_[static_cast<std::size_t>(i)];
  }
  return z;
}

}  // namespace

LpResult solve_dense(const LpProblem& p, const SolverOptions& opts) {
  const int nv = p.num_variables();
  const int m = p.num_constraints();

  // Column layout: [problem vars | slack/surplus | artificials].
  // A row whose slack enters with coefficient +1 (after sign normalization)
  // can use that slack as its initial basic variable and needs no
  // artificial — in the library's cover LPs this removes nearly all of
  // phase 1.
  int num_slacks = 0;
  for (Relation r : p.relations()) {
    if (r != Relation::kEq) ++num_slacks;
  }

  // Shift problem variables to [0, u - l]; compute adjusted rhs.
  std::vector<double> shifted_rhs = p.rhs();
  for (int i = 0; i < m; ++i) {
    for (const auto& [v, c] : p.rows()[static_cast<std::size_t>(i)]) {
      shifted_rhs[static_cast<std::size_t>(i)] -=
          c * p.lower()[static_cast<std::size_t>(v)];
    }
  }

  std::vector<bool> needs_artificial(static_cast<std::size_t>(m), true);
  int num_artificials = 0;
  for (int i = 0; i < m; ++i) {
    const bool negate = shifted_rhs[static_cast<std::size_t>(i)] < 0.0;
    const Relation rel = p.relations()[static_cast<std::size_t>(i)];
    const bool slack_basis =
        (rel == Relation::kLe && !negate) || (rel == Relation::kGe && negate);
    needs_artificial[static_cast<std::size_t>(i)] = !slack_basis;
    if (!slack_basis) ++num_artificials;
  }

  const int n = nv + num_slacks + num_artificials;
  Tableau tb(m, n);
  for (int j = 0; j < nv; ++j) {
    tb.ub_[static_cast<std::size_t>(j)] =
        p.upper()[static_cast<std::size_t>(j)] -
        p.lower()[static_cast<std::size_t>(j)];
  }

  int slack_col = nv;
  int art_col = nv + num_slacks;
  for (int i = 0; i < m; ++i) {
    const bool negate = shifted_rhs[static_cast<std::size_t>(i)] < 0.0;
    const double sign = negate ? -1.0 : 1.0;
    for (const auto& [v, c] : p.rows()[static_cast<std::size_t>(i)]) {
      tb.at(i, v) += sign * c;
    }
    const Relation rel = p.relations()[static_cast<std::size_t>(i)];
    int slack_here = -1;
    if (rel != Relation::kEq) {
      slack_here = slack_col;
      tb.at(i, slack_col) = sign * (rel == Relation::kLe ? 1.0 : -1.0);
      ++slack_col;
    }
    tb.b_[static_cast<std::size_t>(i)] =
        sign * shifted_rhs[static_cast<std::size_t>(i)];
    if (needs_artificial[static_cast<std::size_t>(i)]) {
      tb.at(i, art_col) = 1.0;
      tb.basis_[static_cast<std::size_t>(i)] = art_col;
      ++art_col;
    } else {
      tb.basis_[static_cast<std::size_t>(i)] = slack_here;
    }
  }

  int iter = 0;
  int stall = 0;
  const bool has_deadline =
      opts.deadline != std::chrono::steady_clock::time_point::max();
  auto out_of_time = [&] {
    return has_deadline && (iter & 255) == 0 &&
           std::chrono::steady_clock::now() >= opts.deadline;
  };

  // ---- Phase 1: minimize sum of artificials (skipped when none exist).
  std::vector<double> cost1(static_cast<std::size_t>(n), 0.0);
  if (num_artificials > 0) {
    for (int j = nv + num_slacks; j < n; ++j) {
      cost1[static_cast<std::size_t>(j)] = 1.0;
    }
    // Price out the basis: artificial basic rows have cost 1.
    for (int j = 0; j < n; ++j) {
      double d = cost1[static_cast<std::size_t>(j)];
      for (int i = 0; i < m; ++i) {
        if (needs_artificial[static_cast<std::size_t>(i)]) d -= tb.at(i, j);
      }
      tb.d_[static_cast<std::size_t>(j)] = d;
    }
    for (int i = 0; i < m; ++i) {
      tb.d_[static_cast<std::size_t>(tb.basis_[static_cast<std::size_t>(i)])] =
          0.0;
    }

    double last_obj = phase_objective(tb, cost1);
    for (;; ++iter) {
      if (iter > opts.max_iterations) {
        return LpResult{Status::kIterLimit, 0, {}, iter};
      }
      if (out_of_time()) return LpResult{Status::kTimeLimit, 0, {}, iter};
      const StepResult sr = step(tb, opts.eps, stall > 2 * (m + n));
      if (sr == StepResult::kOptimal) break;
      if (sr == StepResult::kUnbounded) break;  // cannot happen in phase 1
      const double obj = phase_objective(tb, cost1);
      if (obj < last_obj - 1e-12) {
        stall = 0;
        last_obj = obj;
      } else {
        ++stall;
      }
    }
    if (phase_objective(tb, cost1) > 1e-6) {
      return LpResult{Status::kInfeasible, 0, {}, iter};
    }

    // Pin artificials to zero so they never re-enter with positive value.
    for (int j = nv + num_slacks; j < n; ++j) {
      if (tb.flipped_[static_cast<std::size_t>(j)]) {
        // Artificial sits at its "upper" orientation; its value is ~0.
        tb.flipped_[static_cast<std::size_t>(j)] = false;
      }
      tb.ub_[static_cast<std::size_t>(j)] = 0.0;
    }
  }

  // ---- Phase 2: original objective (as minimization).
  const double obj_sign = p.sense() == Objective::kMaximize ? -1.0 : 1.0;
  std::vector<double> cost2(static_cast<std::size_t>(n), 0.0);
  for (int j = 0; j < nv; ++j) {
    cost2[static_cast<std::size_t>(j)] =
        obj_sign * p.objective()[static_cast<std::size_t>(j)];
  }
  for (int j = 0; j < n; ++j) {
    tb.d_[static_cast<std::size_t>(j)] =
        tb.flipped_[static_cast<std::size_t>(j)]
            ? -cost2[static_cast<std::size_t>(j)]
            : cost2[static_cast<std::size_t>(j)];
  }
  tb.rebuild_basic_flags();
  for (int i = 0; i < m; ++i) {
    const int l = tb.basis_[static_cast<std::size_t>(i)];
    const double dl = tb.d_[static_cast<std::size_t>(l)];
    if (dl == 0.0) continue;
    for (int k = 0; k < tb.n_; ++k) {
      tb.d_[static_cast<std::size_t>(k)] -= dl * tb.at(i, k);
    }
    tb.d_[static_cast<std::size_t>(l)] = 0.0;
  }

  stall = 0;
  double last_obj = phase_objective(tb, cost2);
  for (;; ++iter) {
    if (iter > opts.max_iterations) {
      return LpResult{Status::kIterLimit, 0, {}, iter};
    }
    if (out_of_time()) return LpResult{Status::kTimeLimit, 0, {}, iter};
    const StepResult sr = step(tb, opts.eps, stall > 2 * (m + n));
    if (sr == StepResult::kOptimal) break;
    if (sr == StepResult::kUnbounded) {
      return LpResult{Status::kUnbounded, 0, {}, iter};
    }
    const double obj = phase_objective(tb, cost2);
    if (obj < last_obj - 1e-12) {
      stall = 0;
      last_obj = obj;
    } else {
      ++stall;
    }
  }

  // ---- Extract solution in original coordinates.
  std::vector<double> y(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < m; ++i) {
    y[static_cast<std::size_t>(tb.basis_[static_cast<std::size_t>(i)])] =
        tb.b_[static_cast<std::size_t>(i)];
  }
  LpResult res;
  res.status = Status::kOptimal;
  res.iterations = iter;
  res.x.resize(static_cast<std::size_t>(nv));
  for (int j = 0; j < nv; ++j) {
    double v = y[static_cast<std::size_t>(j)];
    if (tb.flipped_[static_cast<std::size_t>(j)]) {
      v = tb.ub_[static_cast<std::size_t>(j)] - v;
    }
    double x = v + p.lower()[static_cast<std::size_t>(j)];
    // Clamp tiny numerical noise back into the box.
    if (x < p.lower()[static_cast<std::size_t>(j)]) {
      x = p.lower()[static_cast<std::size_t>(j)];
    }
    if (x > p.upper()[static_cast<std::size_t>(j)]) {
      x = p.upper()[static_cast<std::size_t>(j)];
    }
    res.x[static_cast<std::size_t>(j)] = x;
  }
  res.objective = 0.0;
  for (int j = 0; j < nv; ++j) {
    res.objective += p.objective()[static_cast<std::size_t>(j)] *
                     res.x[static_cast<std::size_t>(j)];
  }
  return res;
}

namespace {

#ifndef NDEBUG
/// Debug-build oracle: re-solve with the dense tableau and require agreement
/// on status and optimal objective, and that the revised solution satisfies
/// every constraint. Degenerate problems may yield different optimal
/// vertices, so x itself is not compared.
void cross_check(const LpProblem& p, const SolverOptions& opts,
                 const LpResult& res) {
  if (res.status == Status::kIterLimit || res.status == Status::kTimeLimit) {
    return;  // budget stops are not certificates
  }
  SolverOptions oracle_opts;
  oracle_opts.max_iterations = opts.max_iterations;
  oracle_opts.eps = opts.eps;
  const LpResult oracle = solve_dense(p, oracle_opts);
  if (oracle.status == Status::kIterLimit ||
      oracle.status == Status::kTimeLimit) {
    return;
  }
  assert(oracle.status == res.status && "lp: revised/dense status mismatch");
  if (res.status != Status::kOptimal) return;
  const double obj_tol = 1e-6 * (1.0 + std::abs(oracle.objective));
  assert(std::abs(oracle.objective - res.objective) <= obj_tol &&
         "lp: revised/dense objective mismatch");
  for (int i = 0; i < p.num_constraints(); ++i) {
    double lhs = 0.0, scale = 1.0;
    for (const auto& [v, c] : p.rows()[static_cast<std::size_t>(i)]) {
      lhs += c * res.x[static_cast<std::size_t>(v)];
      scale += std::abs(c);
    }
    const double rhs = p.rhs()[static_cast<std::size_t>(i)];
    const double tol = 1e-6 * (scale + std::abs(rhs));
    switch (p.relations()[static_cast<std::size_t>(i)]) {
      case Relation::kLe:
        assert(lhs <= rhs + tol && "lp: revised solution violates <= row");
        break;
      case Relation::kGe:
        assert(lhs >= rhs - tol && "lp: revised solution violates >= row");
        break;
      case Relation::kEq:
        assert(std::abs(lhs - rhs) <= tol &&
               "lp: revised solution violates == row");
        break;
    }
  }
}
#endif

LpResult solve_checked(const LpProblem& p, const SolverOptions& opts) {
  LpResult res = revised_solve(p, opts);
#ifndef NDEBUG
  cross_check(p, opts, res);
#endif
  return res;
}

const char* to_label(Status s) {
  switch (s) {
    case Status::kOptimal: return "optimal";
    case Status::kInfeasible: return "infeasible";
    case Status::kUnbounded: return "unbounded";
    case Status::kIterLimit: return "iter-limit";
    case Status::kTimeLimit: return "time-limit";
  }
  return "?";
}

}  // namespace

LpResult solve(const LpProblem& p, const SolverOptions& opts) {
  // Observability wrapper: the solve itself never consults the sinks, so
  // the pivot sequence is identical whether or not anything is recording.
  if (!opts.obs.enabled()) return solve_checked(p, opts);
  obs::ScopedSpan span(opts.obs, "lp-solve");
  const LpResult res = solve_checked(p, opts);
  span.attr("vars", static_cast<std::uint64_t>(p.num_variables()));
  span.attr("rows", static_cast<std::uint64_t>(p.num_constraints()));
  span.attr("pivots", static_cast<std::uint64_t>(res.iterations));
  span.attr("status", to_label(res.status));
  span.attr("phase1_pivots",
            static_cast<std::uint64_t>(res.phase1_iterations));
  span.attr("refactorizations",
            static_cast<std::uint64_t>(res.refactorizations));
  if (opts.warm != nullptr) {
    span.attr("warm", res.warm_applied ? "hit" : "miss");
  }
  if (opts.obs.metrics != nullptr) {
    obs::MetricsShard shard(opts.obs.metrics);
    shard.add("ced_lp_solves_total");
    shard.add("ced_lp_pivots_total", static_cast<std::uint64_t>(res.iterations));
    shard.observe("ced_lp_pivots_per_solve",
                  static_cast<double>(res.iterations));
    shard.add("ced_lp_refactorizations_total",
              static_cast<std::uint64_t>(res.refactorizations));
    if (opts.warm != nullptr) {
      shard.add("ced_lp_warm_attempts_total");
      if (res.warm_applied) shard.add("ced_lp_warm_hits_total");
    }
  }
  return res;
}

}  // namespace ced::lp
