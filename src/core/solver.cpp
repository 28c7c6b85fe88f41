#include "core/solver.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <string>

#include "core/exact.hpp"

namespace ced::core {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ----------------------------------------------------------------- exact

class ExactSolver final : public Solver {
 public:
  const char* name() const override { return "exact"; }
  CascadeLevel level() const override { return CascadeLevel::kExact; }

  Result<ParityScheme> solve(SolverContext& ctx,
                             const PipelineOptions& opts) const override {
    const DetectabilityTable& table = *ctx.table;
    ExactOptions ex = opts.exact;
    if (opts.budget.max_exact_nodes > 0) {
      ex.max_nodes = opts.budget.max_exact_nodes;
    }
    if (ctx.deadline.armed() && !ex.deadline.armed()) ex.deadline = ctx.deadline;

    obs::ScopedSpan span(ctx.obs, "solver:exact");
    ExactOutcome outcome;
    auto sol = exact_min_cover(table, ex, &outcome);
    span.attr("nodes", static_cast<std::uint64_t>(outcome.nodes));
    if (ctx.obs.metrics != nullptr) {
      obs::MetricsShard shard(ctx.obs.metrics);
      shard.add("ced_exact_solves_total");
      shard.add("ced_exact_nodes_total",
                static_cast<std::uint64_t>(outcome.nodes));
    }
    if (sol) {
      span.attr("q", static_cast<std::uint64_t>(sol->size()));
      if (ctx.stats != nullptr) {
        ctx.stats->final_q = static_cast<int>(sol->size());
      }
      return ParityScheme{std::move(*sol), CascadeLevel::kExact};
    }
    std::string why;
    if (outcome.too_large) {
      why = "instance exceeds exact-solver size limit";
    } else if (outcome.deadline_hit) {
      why = "wall-clock budget exhausted after " +
            std::to_string(outcome.nodes) + " branch-and-bound nodes";
    } else if (outcome.node_budget_hit) {
      why = "branch-and-bound node budget (" + std::to_string(outcome.nodes) +
            " nodes) exhausted";
    } else if (outcome.uncoverable) {
      why = "a case is uncoverable within the candidate space";
    } else {
      why = "exact search could not certify an optimum";
    }
    return Status{outcome.uncoverable ? StatusCode::kInfeasible
                                      : StatusCode::kTruncated,
                  Stage::kExact, std::move(why)};
  }
};

// ----------------------------------------------------- Algorithm 1 (LP+RR)

class LpRoundingSolver final : public Solver {
 public:
  const char* name() const override { return "LP+rounding"; }
  CascadeLevel level() const override { return CascadeLevel::kLpRounding; }

  Result<ParityScheme> solve(SolverContext& ctx,
                             const PipelineOptions& opts) const override {
    const DetectabilityTable& table = *ctx.table;
    if (ctx.deadline.expired()) {
      return Status::truncated(
          Stage::kLp, "wall-clock budget exhausted before the LP stage");
    }
    Algorithm1Options algo = opts.algo;
    algo.threads = opts.exec.threads;
    if (ctx.obs.enabled()) algo.obs = ctx.obs;
    if (ctx.deadline.armed() && !algo.deadline.armed()) {
      algo.deadline = ctx.deadline;
    }
    if (opts.budget.max_lp_iterations > 0) {
      algo.lp.max_iterations = opts.budget.max_lp_iterations;
    }
    if (opts.budget.max_rounding_attempts > 0) {
      algo.iter = std::min(algo.iter, opts.budget.max_rounding_attempts);
    }
    Algorithm1Stats local;
    Algorithm1Stats* st = ctx.stats != nullptr ? ctx.stats : &local;
    auto sol = minimize_parity_functions(table, algo, st, ctx.warm_start, &ctx);
    if (ctx.resilience != nullptr) {
      if (st->lp_budget_hit) {
        ctx.resilience->record(
            Stage::kLp, StatusCode::kTruncated,
            "LP solve stopped on its iteration/time budget (" +
                std::to_string(st->lp_iterations) + " pivots total)",
            seconds_since(ctx.cascade_start), table.cases.size());
      }
      if (st->deadline_hit && !st->lp_budget_hit) {
        ctx.resilience->record(
            Stage::kRounding, StatusCode::kTruncated,
            "wall-clock budget cut the rounding search short after " +
                std::to_string(st->roundings) + " roundings",
            seconds_since(ctx.cascade_start), table.cases.size());
      }
    }
    // greedy_fallback under budget pressure means the answer really came
    // from the next cascade level; without pressure it just means the
    // greedy bound was already optimal — not a degradation.
    CascadeLevel delivered = CascadeLevel::kLpRounding;
    if (st->greedy_fallback && (st->lp_budget_hit || st->deadline_hit)) {
      delivered = st->greedy_degraded ? CascadeLevel::kDuplication
                                      : CascadeLevel::kGreedy;
    }
    return ParityScheme{std::move(sol), delivered};
  }
};

// ---------------------------------------------------------------- greedy

class GreedySolver final : public Solver {
 public:
  const char* name() const override { return "greedy"; }
  CascadeLevel level() const override { return CascadeLevel::kGreedy; }

  Result<ParityScheme> solve(SolverContext& ctx,
                             const PipelineOptions& opts) const override {
    const DetectabilityTable& table = *ctx.table;
    GreedyOptions greedy = opts.algo.greedy;
    if (ctx.deadline.armed() && !greedy.deadline.armed()) {
      greedy.deadline = ctx.deadline;
    }
    if (ctx.obs.enabled()) greedy.obs = ctx.obs;
    GreedyStats gs;
    auto sol = greedy_cover(table, greedy, &gs, &ctx.kernel);
    if (gs.deadline_hit && ctx.resilience != nullptr) {
      ctx.resilience->record(
          Stage::kGreedy, StatusCode::kTruncated,
          "greedy search out of time; closed out with " +
              std::to_string(gs.single_bit_completions) +
              " single-bit functions (duplication-style floor)",
          seconds_since(ctx.cascade_start), table.cases.size());
    }
    if (ctx.stats != nullptr) {
      ctx.stats->final_q = static_cast<int>(sol.size());
      ctx.stats->greedy_fallback = true;
      ctx.stats->deadline_hit = ctx.stats->deadline_hit || gs.deadline_hit;
      ctx.stats->greedy_degraded =
          ctx.stats->greedy_degraded || gs.deadline_hit;
    }
    // The single-bit close-out keeps this level infallible, which is what
    // lets the cascade driver stay a plain loop.
    return ParityScheme{std::move(sol), gs.deadline_hit
                                            ? CascadeLevel::kDuplication
                                            : CascadeLevel::kGreedy};
  }
};

}  // namespace

std::span<const Solver* const> solver_cascade() {
  static const ExactSolver exact;
  static const LpRoundingSolver lp;
  static const GreedySolver greedy;
  static const std::array<const Solver*, 3> table = {&exact, &lp, &greedy};
  return table;
}

std::size_t cascade_entry(SolverKind kind) {
  switch (kind) {
    case SolverKind::kExact: return 0;
    case SolverKind::kLpRounding: return 1;
    case SolverKind::kGreedy: return 2;
  }
  return 1;
}

CascadeLevel cascade_level_of(SolverKind kind) {
  return solver_cascade()[cascade_entry(kind)]->level();
}

}  // namespace ced::core
