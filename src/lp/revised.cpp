#include "lp/revised.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "lp/basis.hpp"
#include "lp/sparse.hpp"

namespace ced::lp {
namespace {

constexpr double kFeasTol = 1e-7;    // basic-value bound-violation tolerance
constexpr double kPivotTol = 1e-9;   // minimum acceptable |pivot|
constexpr double kDegenTol = 1e-12;  // ratio ties / degenerate-step threshold

enum class VStat : std::uint8_t { kAtLower, kAtUpper, kBasic };

/// Bounded-variable revised primal simplex.
///
/// Standard form: problem variables are shifted to [0, u - l]; every row
/// gets exactly one *logical* column (slack +1 for kLe, surplus -1 for
/// kGe, a fixed [0,0] artificial for kEq), so the all-logical basis always
/// exists and is diagonal. There is no artificial phase: a *composite*
/// phase 1 minimizes the total bound violation of the basic variables
/// (costs +-1 on infeasible basics, recomputed every iteration), which
/// repairs cold starts and warm starts through the same code path.
///
/// The basis inverse is a product-form eta file (lp/basis.hpp), rebuilt
/// from the basis columns every `refactor_interval` pivots. One iteration
/// costs an O(m) phase-1 cost pass, a BTRAN over the stored etas, a
/// pricing pass over every nonzero of A, and an FTRAN of the entering
/// column whose ratio test, x_B update and eta push run over its fill
/// pattern only. A refactorization costs what lp/basis.hpp's cost model
/// says: quadratic in the basic structural columns, not in m.
class RevisedSimplex {
 public:
  RevisedSimplex(const LpProblem& p, const SolverOptions& opts)
      : p_(p), opts_(opts) {}

  LpResult run() {
    build();
    if (opts_.warm != nullptr) warm_applied_ = apply_warm(*opts_.warm);
    if (!warm_applied_) cold_basis();
    if (refactor()) warm_applied_ = false;  // mapped basis was repaired
    compute_xb();

    // A mid-phase-2 refactorization can repair (change) the basis, which
    // may reintroduce infeasibility — loop back through phase 1 when that
    // happens. In practice repairs are a numerical corner case and the
    // loop runs once.
    for (int round = 0; round < 4; ++round) {
      const Outcome s1 = iterate(/*phase1=*/true);
      if (s1 != Outcome::kDone) return finish(to_status(s1));
      if (infeasibility() > 1e-6) return finish(Status::kInfeasible);
      const Outcome s2 = iterate(/*phase1=*/false);
      if (s2 != Outcome::kNeedsPhase1) return finish(to_status(s2));
    }
    return finish(Status::kIterLimit);
  }

 private:
  enum class Outcome { kDone, kIterLimit, kTimeLimit, kUnbounded,
                       kNeedsPhase1 };

  static Status to_status(Outcome o) {
    switch (o) {
      case Outcome::kDone: return Status::kOptimal;
      case Outcome::kIterLimit: return Status::kIterLimit;
      case Outcome::kTimeLimit: return Status::kTimeLimit;
      case Outcome::kUnbounded: return Status::kUnbounded;
      case Outcome::kNeedsPhase1: break;
    }
    return Status::kIterLimit;
  }

  // ---- construction ------------------------------------------------------

  void build() {
    nv_ = p_.num_variables();
    m_ = p_.num_constraints();
    n_ = nv_ + m_;

    range_.assign(static_cast<std::size_t>(n_), kInfinity);
    cost_.assign(static_cast<std::size_t>(n_), 0.0);
    const double obj_sign = p_.sense() == Objective::kMaximize ? -1.0 : 1.0;
    for (int j = 0; j < nv_; ++j) {
      range_[static_cast<std::size_t>(j)] =
          p_.upper()[static_cast<std::size_t>(j)] -
          p_.lower()[static_cast<std::size_t>(j)];
      cost_[static_cast<std::size_t>(j)] =
          obj_sign * p_.objective()[static_cast<std::size_t>(j)];
    }

    b_.assign(static_cast<std::size_t>(m_), 0.0);
    std::vector<CscMatrix::Triplet> trip;
    for (int i = 0; i < m_; ++i) {
      double rhs = p_.rhs()[static_cast<std::size_t>(i)];
      for (const auto& [v, c] : p_.rows()[static_cast<std::size_t>(i)]) {
        trip.push_back({v, i, c});
        rhs -= c * p_.lower()[static_cast<std::size_t>(v)];
      }
      b_[static_cast<std::size_t>(i)] = rhs;
      const Relation rel = p_.relations()[static_cast<std::size_t>(i)];
      const int logical = nv_ + i;
      trip.push_back({logical, i, rel == Relation::kGe ? -1.0 : 1.0});
      range_[static_cast<std::size_t>(logical)] =
          rel == Relation::kEq ? 0.0 : kInfinity;
    }
    A_ = CscMatrix::from_triplets(m_, n_, std::move(trip));

    stat_.assign(static_cast<std::size_t>(n_), VStat::kAtLower);
    basis_.assign(static_cast<std::size_t>(m_), -1);
    banned_.assign(static_cast<std::size_t>(n_), 0);
    xb_.assign(static_cast<std::size_t>(m_), 0.0);
    w_.resize(m_);
    interval_ = opts_.refactor_interval > 0
                    ? static_cast<std::size_t>(opts_.refactor_interval)
                    : 64;
  }

  void cold_basis() {
    for (int j = 0; j < n_; ++j) stat_[static_cast<std::size_t>(j)] =
        VStat::kAtLower;
    for (int i = 0; i < m_; ++i) {
      basis_[static_cast<std::size_t>(i)] = nv_ + i;
      stat_[static_cast<std::size_t>(nv_ + i)] = VStat::kBasic;
    }
  }

  bool apply_warm(const BasisSnapshot& ws) {
    if (static_cast<int>(ws.row_basic.size()) != m_ ||
        static_cast<int>(ws.at_upper.size()) != nv_) {
      return false;
    }
    for (int j = 0; j < nv_; ++j) {
      const bool up = ws.at_upper[static_cast<std::size_t>(j)] != 0 &&
                      std::isfinite(range_[static_cast<std::size_t>(j)]) &&
                      range_[static_cast<std::size_t>(j)] > 0.0;
      stat_[static_cast<std::size_t>(j)] = up ? VStat::kAtUpper
                                              : VStat::kAtLower;
    }
    for (int j = nv_; j < n_; ++j) {
      stat_[static_cast<std::size_t>(j)] = VStat::kAtLower;
    }
    std::vector<char> used(static_cast<std::size_t>(nv_), 0);
    for (int i = 0; i < m_; ++i) {
      const std::int32_t cand = ws.row_basic[static_cast<std::size_t>(i)];
      if (cand >= 0 && cand < nv_ && !used[static_cast<std::size_t>(cand)]) {
        used[static_cast<std::size_t>(cand)] = 1;
        basis_[static_cast<std::size_t>(i)] = cand;
        stat_[static_cast<std::size_t>(cand)] = VStat::kBasic;
      } else {
        basis_[static_cast<std::size_t>(i)] = nv_ + i;
        stat_[static_cast<std::size_t>(nv_ + i)] = VStat::kBasic;
      }
    }
    return true;
  }

  // ---- factorization -----------------------------------------------------

  /// Scatters column j into the work column and FTRANs it. The pattern
  /// comes back sorted, so every scan over it visits rows in the order of
  /// a dense loop over all m rows and takes the same decisions.
  void ftran_column(int j) {
    w_.clear();
    for (const CscMatrix::Entry& e : A_.column(j)) w_.set(e.row, e.value);
    eta_.ftran(w_);
    w_.sort_pattern();
  }

  /// Coefficient of row r's logical column (its only entry): +1 for a
  /// slack or fixed artificial, -1 for a surplus.
  double logical_sign(int r) const { return A_.column(nv_ + r)[0].value; }

  /// Rebuilds the eta file from the current basis columns with partial
  /// pivoting: each column pivots at the still-free row where it is
  /// largest (the row assignment of a basic variable is bookkeeping, not
  /// an invariant — any permutation of the same column set is the same
  /// basis). Unit logical columns go first (zero fill), structural columns
  /// after, in deterministic order. A structural column with no usable
  /// pivot is linearly dependent on the ones already processed — possible
  /// for mapped warm-start bases — and is *repaired*: displaced to
  /// nonbasic-at-lower, its row taken by that row's logical (the composite
  /// phase 1 absorbs the resulting infeasibility). Returns true when a
  /// repair changed the basis.
  ///
  /// A logical never needs an FTRAN: no eta before it pivots on its unit
  /// row (basic logicals pivot on their own rows, and a row a repair left
  /// free has no pivot at all), so the file maps it to itself and it
  /// pivots on its own row with its own sign. Hence factorization cannot
  /// fail, and a repaired row always has its logical to fall back on.
  bool refactor() {
    ++refactors_;
    eta_.reset();
    bool changed = false;
    std::vector<int> new_basis(static_cast<std::size_t>(m_), -1);
    for (int i = 0; i < m_; ++i) {
      const int col = basis_[static_cast<std::size_t>(i)];
      if (col < nv_) continue;
      const int r = col - nv_;
      new_basis[static_cast<std::size_t>(r)] = col;
      eta_.push_unit(r, logical_sign(r));
    }
    for (int i = 0; i < m_; ++i) {
      const int col = basis_[static_cast<std::size_t>(i)];
      if (col >= nv_) continue;
      ftran_column(col);
      int best = -1;
      double mag = kPivotTol;
      for (const std::int32_t r : w_.pattern()) {
        const double a = std::abs(w_[r]);
        if (new_basis[static_cast<std::size_t>(r)] < 0 && a > mag) {
          mag = a;
          best = r;
        }
      }
      if (best < 0) {
        // Dependent on the columns already factorized.
        stat_[static_cast<std::size_t>(col)] = VStat::kAtLower;
        changed = true;
        continue;  // the leftover row gets its logical below
      }
      new_basis[static_cast<std::size_t>(best)] = col;
      eta_.push(w_, best);
    }
    // Rows left unpivoted by repairs: their own logicals take over (a unit
    // column is the deterministic choice and keeps the file sparse).
    for (int r = 0; r < m_; ++r) {
      if (new_basis[static_cast<std::size_t>(r)] >= 0) continue;
      stat_[static_cast<std::size_t>(nv_ + r)] = VStat::kBasic;
      new_basis[static_cast<std::size_t>(r)] = nv_ + r;
      eta_.push_unit(r, logical_sign(r));
    }
    basis_ = std::move(new_basis);
    return changed;
  }

  void compute_xb() {
    std::vector<double> r = b_;
    for (int j = 0; j < n_; ++j) {
      if (stat_[static_cast<std::size_t>(j)] == VStat::kAtUpper) {
        A_.column_axpy(j, -range_[static_cast<std::size_t>(j)], r.data());
      }
    }
    eta_.ftran(r);
    xb_ = std::move(r);
  }

  double infeasibility() const {
    double total = 0.0;
    for (int i = 0; i < m_; ++i) {
      const double v = xb_[static_cast<std::size_t>(i)];
      const double u =
          range_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])];
      if (v < 0.0) total -= v;
      else if (v > u) total += v - u;
    }
    return total;
  }

  // ---- the simplex loop --------------------------------------------------

  Outcome iterate(bool phase1) {
    const double eps = opts_.eps;
    const bool has_deadline =
        opts_.deadline != std::chrono::steady_clock::time_point::max();
    std::vector<double> y(static_cast<std::size_t>(m_));
    int stall = 0;

    for (;;) {
      if (iter_ > opts_.max_iterations) return Outcome::kIterLimit;
      if (has_deadline && (iter_ & 255) == 0 &&
          std::chrono::steady_clock::now() >= opts_.deadline) {
        return Outcome::kTimeLimit;
      }
      if (eta_.etas() >= static_cast<std::size_t>(m_) + interval_) {
        const bool repaired = refactor();
        compute_xb();
        if (repaired && !phase1) return Outcome::kNeedsPhase1;
      }

      // Duals: y = B^{-T} c_B. Phase-1 costs are the current infeasibility
      // signs of the basic variables, recomputed every iteration.
      std::fill(y.begin(), y.end(), 0.0);
      bool any_cost = false;
      for (int i = 0; i < m_; ++i) {
        double c;
        if (phase1) {
          const double v = xb_[static_cast<std::size_t>(i)];
          const double u = range_[static_cast<std::size_t>(
              basis_[static_cast<std::size_t>(i)])];
          c = v < -kFeasTol ? -1.0 : (v > u + kFeasTol ? 1.0 : 0.0);
        } else {
          c = cost_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])];
        }
        if (c != 0.0) {
          y[static_cast<std::size_t>(i)] = c;
          any_cost = true;
        }
      }
      if (phase1 && !any_cost) return Outcome::kDone;  // primal feasible
      if (any_cost) eta_.btran(y);

      // Pricing: most attractive reduced cost (Bland's rule under stall).
      const bool bland = stall > 2 * (m_ + n_);
      int enter = -1, dir = 0;
      double best = eps;
      bool banned_eligible = false;
      for (int j = 0; j < n_; ++j) {
        if (stat_[static_cast<std::size_t>(j)] == VStat::kBasic) continue;
        if (range_[static_cast<std::size_t>(j)] <= 0.0) continue;  // fixed
        const double cj = phase1 ? 0.0 : cost_[static_cast<std::size_t>(j)];
        const double d = any_cost ? cj - A_.column_dot(j, y.data()) : cj;
        double score;
        int dj;
        if (stat_[static_cast<std::size_t>(j)] == VStat::kAtLower &&
            d < -eps) {
          score = -d;
          dj = +1;
        } else if (stat_[static_cast<std::size_t>(j)] == VStat::kAtUpper &&
                   d > eps) {
          score = d;
          dj = -1;
        } else {
          continue;
        }
        if (banned_[static_cast<std::size_t>(j)]) {
          banned_eligible = true;
          continue;
        }
        if (bland) {
          enter = j;
          dir = dj;
          break;
        }
        if (score > best) {
          best = score;
          enter = j;
          dir = dj;
        }
      }
      if (enter < 0) {
        // A banned column still priced attractive: numerical dead end, not
        // a certified optimum — surface as an iteration-budget stop.
        return banned_eligible ? Outcome::kIterLimit : Outcome::kDone;
      }

      ftran_column(enter);

      // Bounded ratio test. The entering variable moves by t >= 0 in
      // direction `dir`; basic i changes at rate -g_i, g_i = dir * w_i.
      // Phase 1 lets an infeasible basic run to the bound it violates
      // (where it turns feasible and must block); feasible basics block at
      // their bounds as usual. Rows outside the pattern have g = 0 and
      // would be skipped (eps > 0), so only the pattern is scanned.
      double t_min = range_[static_cast<std::size_t>(enter)];
      int leave_row = -1;
      bool leave_at_upper = false;
      double leave_g = 0.0;
      for (const std::int32_t i : w_.pattern()) {
        const double g = dir * w_[i];
        if (g > -eps && g < eps) continue;
        const double v = xb_[static_cast<std::size_t>(i)];
        const double u = range_[static_cast<std::size_t>(
            basis_[static_cast<std::size_t>(i)])];
        double t;
        bool up;
        if (phase1 && v < -kFeasTol) {
          if (g >= -eps) continue;  // drifting further below: no block
          t = v / g;
          up = false;
        } else if (phase1 && std::isfinite(u) && v > u + kFeasTol) {
          if (g <= eps) continue;  // drifting further above: no block
          t = (v - u) / g;
          up = true;
        } else if (g > eps) {
          t = v / g;
          up = false;
        } else {
          if (!std::isfinite(u)) continue;
          t = (v - u) / g;
          up = true;
        }
        if (t < 0.0) t = 0.0;
        if (t < t_min - kDegenTol) {
          t_min = t;
          leave_row = i;
          leave_at_upper = up;
          leave_g = g;
        } else if (leave_row >= 0 && t <= t_min + kDegenTol) {
          // Tie: Bland prefers the smallest leaving variable index
          // (anti-cycling); otherwise take the numerically larger pivot.
          const bool better =
              bland ? basis_[static_cast<std::size_t>(i)] <
                          basis_[static_cast<std::size_t>(leave_row)]
                    : std::abs(g) > std::abs(leave_g) + kDegenTol;
          if (better) {
            if (t < t_min) t_min = t;
            leave_row = i;
            leave_at_upper = up;
            leave_g = g;
          }
        }
      }

      if (leave_row < 0 && !std::isfinite(t_min)) {
        if (!phase1) return Outcome::kUnbounded;
        // Phase-1 improvement is bounded by construction; an unbounded ray
        // here is numerical noise — retire the column for this solve.
        banned_[static_cast<std::size_t>(enter)] = 1;
        banned_any_ = true;
        continue;
      }
      if (leave_row >= 0 && std::abs(w_[leave_row]) <= kPivotTol) {
        // Unusable pivot. Refresh the factorization once (drift may have
        // manufactured it); if the file is already fresh, ban the column.
        if (eta_.etas() > static_cast<std::size_t>(m_)) {
          const bool repaired = refactor();
          compute_xb();
          if (repaired && !phase1) return Outcome::kNeedsPhase1;
        } else {
          banned_[static_cast<std::size_t>(enter)] = 1;
          banned_any_ = true;
        }
        continue;
      }

      ++iter_;
      if (phase1) ++p1_;
      stall = t_min > kDegenTol ? 0 : stall + 1;

      // Apply the step: x_B -= t * g, entering variable takes its value.
      if (t_min != 0.0) {
        for (const std::int32_t i : w_.pattern()) {
          const double wi = w_[i];
          if (wi != 0.0) {
            xb_[static_cast<std::size_t>(i)] -= t_min * dir * wi;
          }
        }
      }
      if (leave_row < 0) {
        // Bound flip: the entering variable crosses to its other bound.
        stat_[static_cast<std::size_t>(enter)] =
            dir > 0 ? VStat::kAtUpper : VStat::kAtLower;
      } else {
        const int leaving = basis_[static_cast<std::size_t>(leave_row)];
        stat_[static_cast<std::size_t>(leaving)] =
            leave_at_upper ? VStat::kAtUpper : VStat::kAtLower;
        xb_[static_cast<std::size_t>(leave_row)] =
            dir > 0 ? t_min : range_[static_cast<std::size_t>(enter)] - t_min;
        basis_[static_cast<std::size_t>(leave_row)] = enter;
        stat_[static_cast<std::size_t>(enter)] = VStat::kBasic;
        eta_.push(w_, leave_row);
      }
      if (banned_any_) {
        std::fill(banned_.begin(), banned_.end(), 0);
        banned_any_ = false;
      }
    }
  }

  // ---- extraction --------------------------------------------------------

  LpResult finish(Status s) {
    LpResult res;
    res.status = s;
    res.iterations = iter_;
    res.phase1_iterations = p1_;
    res.refactorizations = refactors_;
    res.warm_applied = warm_applied_;
    if (s != Status::kOptimal) return res;

    std::vector<int> row_of(static_cast<std::size_t>(n_), -1);
    for (int i = 0; i < m_; ++i) {
      row_of[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] = i;
    }
    res.x.resize(static_cast<std::size_t>(nv_));
    for (int j = 0; j < nv_; ++j) {
      double v;
      switch (stat_[static_cast<std::size_t>(j)]) {
        case VStat::kBasic:
          v = xb_[static_cast<std::size_t>(row_of[static_cast<std::size_t>(j)])];
          break;
        case VStat::kAtUpper: v = range_[static_cast<std::size_t>(j)]; break;
        default: v = 0.0; break;
      }
      double x = v + p_.lower()[static_cast<std::size_t>(j)];
      // Clamp tiny numerical noise back into the box (same as the oracle).
      if (x < p_.lower()[static_cast<std::size_t>(j)]) {
        x = p_.lower()[static_cast<std::size_t>(j)];
      }
      if (x > p_.upper()[static_cast<std::size_t>(j)]) {
        x = p_.upper()[static_cast<std::size_t>(j)];
      }
      res.x[static_cast<std::size_t>(j)] = x;
    }
    res.objective = 0.0;
    for (int j = 0; j < nv_; ++j) {
      res.objective += p_.objective()[static_cast<std::size_t>(j)] *
                       res.x[static_cast<std::size_t>(j)];
    }
    if (opts_.want_basis) {
      // Canonical form: the basis is a SET of columns (row assignment is
      // factorization bookkeeping), so record each basic logical on its
      // own row and pair the basic structurals with the remaining rows in
      // ascending order. Reapplying the snapshot then reproduces exactly
      // the same column set, which factorizes without repair.
      BasisSnapshot snap;
      snap.row_basic.assign(static_cast<std::size_t>(m_), -1);
      std::vector<char> own_logical(static_cast<std::size_t>(m_), 0);
      std::vector<std::int32_t> structurals;
      for (int i = 0; i < m_; ++i) {
        const int bj = basis_[static_cast<std::size_t>(i)];
        if (bj >= nv_) {
          own_logical[static_cast<std::size_t>(bj - nv_)] = 1;
        } else {
          structurals.push_back(static_cast<std::int32_t>(bj));
        }
      }
      std::sort(structurals.begin(), structurals.end());
      std::size_t s = 0;
      for (int i = 0; i < m_ && s < structurals.size(); ++i) {
        if (own_logical[static_cast<std::size_t>(i)] == 0) {
          snap.row_basic[static_cast<std::size_t>(i)] = structurals[s++];
        }
      }
      snap.at_upper.resize(static_cast<std::size_t>(nv_));
      for (int j = 0; j < nv_; ++j) {
        snap.at_upper[static_cast<std::size_t>(j)] =
            stat_[static_cast<std::size_t>(j)] == VStat::kAtUpper ? 1 : 0;
      }
      res.basis = std::move(snap);
    }
    return res;
  }

  const LpProblem& p_;
  const SolverOptions& opts_;
  int nv_ = 0, m_ = 0, n_ = 0;
  CscMatrix A_;
  std::vector<double> range_, cost_, b_, xb_;
  std::vector<VStat> stat_;
  std::vector<int> basis_;
  std::vector<char> banned_;
  bool banned_any_ = false;
  EtaBasis eta_;
  /// The column being FTRANed: a basis column during refactorization, the
  /// entering column during an iteration. All zero outside its pattern.
  WorkColumn w_;
  std::size_t interval_ = 64;
  int iter_ = 0, p1_ = 0, refactors_ = 0;
  bool warm_applied_ = false;
};

}  // namespace

LpResult revised_solve(const LpProblem& p, const SolverOptions& opts) {
  return RevisedSimplex(p, opts).run();
}

}  // namespace ced::lp
