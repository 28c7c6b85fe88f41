#include "core/algorithm1.hpp"

#include <algorithm>
#include <atomic>

#include "common/parallel.hpp"
#include "core/rng.hpp"

namespace ced::core {
namespace {

/// Number of detecting (bit, step) entries of a case: rows with few entries
/// constrain the LP the most and are sampled first.
int hardness_of(const ErroneousCase& ec) {
  int total = 0;
  for (int k = 0; k < ec.length; ++k) {
    total += std::popcount(ec.diff[static_cast<std::size_t>(k)]);
  }
  return total;
}

/// The verification sample: an insertion-ordered row list with O(1)
/// duplicate rejection (the LP rows and the stride spread overlap, and
/// full-table checks keep teaching the sample rows it already knows), plus
/// the subset kernel over those rows that the trial screens, the row
/// generation and the repairs all query. The kernel is rebuilt only after
/// rows were added, so consecutive rounds and repairs over an unchanged
/// sample share one.
class RowSet {
 public:
  explicit RowSet(const DetectabilityTable& table)
      : table_(&table), in_(table.cases.size(), false) {}

  void add(std::uint32_t r) {
    if (in_[r]) return;
    in_[r] = true;
    rows_.push_back(r);
  }

  const std::vector<std::uint32_t>& rows() const { return rows_; }

  /// Subset kernel over rows(); local row r is rows()[r]. Not thread-safe:
  /// fetch it before sharing it with workers.
  const CoverKernel& kernel(Algorithm1Stats* stats) {
    if (!kernel_ || kernel_->num_rows() != rows_.size()) {
      kernel_.emplace(*table_, rows_);
      if (stats) ++stats->kernel_builds;
    }
    return *kernel_;
  }

 private:
  const DetectabilityTable* table_;
  std::vector<bool> in_;
  std::vector<std::uint32_t> rows_;
  std::optional<CoverKernel> kernel_;
};

/// Adds a spread over the whole table to the verification sample: every
/// row when the table fits under `cap`, else every (size / cap)-th row.
void seed_verification_sample(RowSet& check, const DetectabilityTable& table,
                              std::size_t cap) {
  if (table.cases.size() > cap) {
    const std::size_t stride = table.cases.size() / cap;
    for (std::size_t i = 0; i < table.cases.size(); i += stride) {
      check.add(static_cast<std::uint32_t>(i));
    }
  } else {
    for (std::size_t i = 0; i < table.cases.size(); ++i) {
      check.add(static_cast<std::uint32_t>(i));
    }
  }
}

/// One randomized rounding per eq. (1), with a mild late-iteration blend
/// toward 1/2 on fractional bits to escape repeatedly failing extreme
/// points.
std::vector<ParityFunc> round_once(const std::vector<std::vector<double>>& x,
                                   double blend, Rng& rng) {
  std::vector<ParityFunc> betas;
  for (const auto& tree : x) {
    ParityFunc b = 0;
    for (std::size_t j = 0; j < tree.size(); ++j) {
      double prob = tree[j];
      if (prob > 1e-9 && prob < 1.0 - 1e-9) {
        prob = (1.0 - blend) * prob + blend * 0.5;
      }
      if (rng.flip(prob)) b |= std::uint64_t{1} << j;
    }
    if (b != 0) betas.push_back(b);
  }
  return betas;
}

/// Hill-climb repair over a row subset: flips bits of the candidate trees
/// to reduce the number of uncovered rows (exact GF(2) evaluation, but only
/// on the rows of the subset kernel `sub` — callers re-verify against the
/// full table). Each tree holds a BetaCursor over `sub`. While only tree t
/// moves, the union of the OTHER trees' covers is a constant base, so all
/// n flip-candidates of tree t are probed in one blocked neighbor_counts
/// sweep; counts are re-probed after every accepted flip, so the scan
/// order and acceptance rule are those of a flip/count/flip-back loop over
/// (t, j). Runs under a `repair` span.
bool repair_on(std::vector<ParityFunc>& betas, const CoverKernel& sub, int n,
               const obs::Sinks& obs) {
  const obs::ScopedSpan span(obs, "repair");
  std::vector<BetaCursor> cur;
  cur.reserve(betas.size());
  for (const ParityFunc b : betas) cur.emplace_back(sub, b);
  std::vector<std::uint64_t> base(sub.num_words());
  for (const BetaCursor& c : cur) c.or_covered_into(base.data());
  std::size_t unc = sub.num_rows() - sub.count(base.data());
  std::vector<std::size_t> ncounts(static_cast<std::size_t>(n));
  bool improved = true;
  while (unc > 0 && improved) {
    improved = false;
    for (std::size_t t = 0; t < cur.size() && unc > 0; ++t) {
      std::fill(base.begin(), base.end(), 0);
      for (std::size_t o = 0; o < cur.size(); ++o) {
        if (o != t) cur[o].or_covered_into(base.data());
      }
      cur[t].neighbor_counts(ncounts, base.data());
      for (int j = 0; j < n; ++j) {
        const std::size_t trial =
            sub.num_rows() - ncounts[static_cast<std::size_t>(j)];
        if (trial < unc) {
          cur[t].flip(j);
          unc = trial;
          improved = true;
          if (j + 1 < n) cur[t].neighbor_counts(ncounts, base.data());
        }
      }
    }
  }
  for (std::size_t t = 0; t < cur.size(); ++t) betas[t] = cur[t].beta();
  return unc == 0;
}

}  // namespace

SolverContext::SolverContext(const DetectabilityTable& t)
    : table(&t), kernel(t) {
  hardness.resize(t.cases.size());
  for (std::size_t i = 0; i < t.cases.size(); ++i) {
    hardness[i] = hardness_of(t.cases[i]);
  }
  hard_order.resize(t.cases.size());
  for (std::size_t i = 0; i < hard_order.size(); ++i) {
    hard_order[i] = static_cast<std::uint32_t>(i);
  }
  std::stable_sort(hard_order.begin(), hard_order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return hardness[a] < hardness[b];
                   });
}

std::optional<std::vector<ParityFunc>> solve_for_q(
    const DetectabilityTable& table, int q, const Algorithm1Options& opts,
    Algorithm1Stats* stats, const SolverContext* ctx) {
  if (table.cases.empty()) return std::vector<ParityFunc>{};
  if (q <= 0) return std::nullopt;

  // The hardness ordering and the kernel depend only on the table; a
  // caller probing several q values (the binary search) passes one context
  // down instead of recomputing them per probe.
  std::optional<SolverContext> local_ctx;
  if (ctx == nullptr) {
    local_ctx.emplace(table);
    ctx = &*local_ctx;
  }

  // Base stream for this q; every rounding trial forks its own child
  // stream from (base, round, trial-index), so trials are independent and
  // reproducible regardless of how they are scheduled across threads.
  const Rng base(opts.seed ^ (static_cast<std::uint64_t>(q) << 32));
  const int threads = resolve_threads(opts.threads);
  const std::size_t lp_limit =
      std::min(table.cases.size(),
               static_cast<std::size_t>(std::max(opts.lp_sample_rows, 0)));
  std::vector<std::uint32_t> rows(ctx->hard_order.begin(),
                                  ctx->hard_order.begin() +
                                      static_cast<std::ptrdiff_t>(lp_limit));
  std::vector<bool> in_lp(table.cases.size(), false);
  for (auto rid : rows) in_lp[rid] = true;

  // Verification sample: the LP rows plus a spread over the whole table
  // (deduplicated — the spread overlaps the LP rows). Roundings are
  // screened against it; only screen-passing candidates pay for the exact
  // full-table Statement-4 check.
  RowSet check(table);
  for (auto rid : rows) check.add(rid);
  seed_verification_sample(check, table, opts.verify_sample_cap);

  // Full exact check with sample refinement: a candidate that covers the
  // sample but misses full-table rows teaches the sample those rows.
  auto full_check = [&](std::vector<ParityFunc>& betas) -> bool {
    const auto missed = ctx->kernel.uncovered(betas);
    if (missed.empty()) return true;
    for (std::size_t i = 0; i < missed.size() && i < 64; ++i) {
      check.add(missed[i]);
    }
    return false;
  };

  std::vector<ParityFunc> best_attempt;
  std::size_t best_uncovered = table.cases.size() + 1;

  // Forward the wall-clock budget and the observability sinks into each
  // LP solve (the simplex records pivots and a span per solve).
  lp::SolverOptions lp_opts = opts.lp;
  if (opts.deadline.armed() && opts.deadline.time_point() < lp_opts.deadline) {
    lp_opts.deadline = opts.deadline.time_point();
  }
  lp_opts.obs = opts.obs;
  // Basis reuse across formulations: every optimal solve deposits its basis
  // in the shared context; the next solve (same q next round, or the
  // adjacent q of the binary search) maps it onto the new formulation by
  // identity keys and starts from there.
  lp_opts.want_basis = true;

  for (int round = 0; round < opts.row_rounds; ++round) {
    if (opts.deadline.expired()) {
      if (stats) stats->deadline_hit = true;
      break;
    }
    LpFormulation f = opts.use_statement5
                          ? build_lp_statement5(table, rows, q)
                          : build_lp(table, rows, q);
    lp::BasisSnapshot warm_snap;
    lp_opts.warm = nullptr;
    if (ctx->lp_memo) {
      warm_snap = map_basis_to(*ctx->lp_memo, f);
      lp_opts.warm = &warm_snap;
    }
    lp::LpResult res = lp::solve(f.problem, lp_opts);
    lp_opts.warm = nullptr;  // never dangle past warm_snap's scope
    if (stats) {
      ++stats->lp_solves;
      stats->lp_iterations += res.iterations;
      stats->lp_phase1_iterations += res.phase1_iterations;
      stats->lp_refactorizations += res.refactorizations;
      if (ctx->lp_memo) {
        ++stats->lp_warm_attempts;
        if (res.warm_applied) ++stats->lp_warm_hits;
      }
    }
    if (res.basis) {
      ctx->lp_memo = LpBasisMemo{f.var_key, f.row_key, std::move(*res.basis)};
    }
    if (res.status == lp::Status::kInfeasible) return std::nullopt;
    if (res.status != lp::Status::kOptimal) {
      // Solver budget hit (iteration or time limit): record it instead of
      // silently abandoning the round, then fall through to repair.
      if (stats) {
        stats->lp_budget_hit = true;
        if (res.status == lp::Status::kTimeLimit) stats->deadline_hit = true;
      }
      break;
    }
    const auto x = beta_values(f, res);

    // Algorithm 1's ITER trials are mutually independent given the LP
    // solution, so run them concurrently: each trial rounds with its own
    // derived Rng stream and is screened against a snapshot of the sample
    // rows (one shared subset kernel — immutable, hence safely read by all
    // workers). The sequential resolution below walks trials in index
    // order — first full-check success by lowest trial index wins — so the
    // outcome is identical for every thread count.
    struct Trial {
      std::vector<ParityFunc> betas;
      std::size_t uncov = 0;
      bool ran = false;
    };
    std::vector<Trial> trials(static_cast<std::size_t>(std::max(opts.iter, 0)));
    obs::ScopedSpan screen(opts.obs, "screen");
    const CoverKernel& screen_kernel = check.kernel(stats);
    std::atomic<int> executed{0};
    parallel_for(threads, trials.size(), [&](std::size_t it) {
      if (opts.deadline.expired()) return;  // trial skipped, noted below
      const double blend =
          opts.iter <= 1
              ? 0.0
              : 0.5 * std::max(0.0, (2.0 * static_cast<double>(it) -
                                     opts.iter) /
                                        static_cast<double>(opts.iter));
      Rng trial_rng = base.stream(
          (static_cast<std::uint64_t>(round) << 32) + it);
      Trial& tr = trials[it];
      tr.betas = round_once(x, blend, trial_rng);
      // Screen the trial's whole candidate set in one blocked pass.
      CoverBatch batch(screen_kernel);
      tr.uncov = batch.uncovered_count(tr.betas);
      tr.ran = true;
      executed.fetch_add(1, std::memory_order_relaxed);
    });
    if (stats) {
      const auto ran =
          static_cast<std::uint64_t>(executed.load(std::memory_order_relaxed));
      stats->roundings += static_cast<int>(ran);
      // Screening-cost accounting at trial-batch granularity (outside the
      // decision path; the search never reads these).
      stats->kernel_case_evals += ran * screen_kernel.num_rows();
    }
    if (opts.obs.metrics != nullptr) {
      // Batch-size distribution of the one-pass trial screens (write-only;
      // the search never reads it).
      obs::MetricsShard shard(opts.obs.metrics);
      for (const Trial& tr : trials) {
        if (tr.ran) {
          shard.observe("ced_kernel_batch_size",
                        static_cast<double>(tr.betas.size()));
        }
      }
    }
    screen.end();
    bool trials_skipped = false;
    for (Trial& tr : trials) {
      if (!tr.ran) {
        trials_skipped = true;
        continue;
      }
      if (tr.uncov == 0 && full_check(tr.betas)) {
        return prune_redundant(tr.betas, table, &ctx->kernel);
      }
      if (tr.uncov < best_uncovered &&
          tr.betas.size() <= static_cast<std::size_t>(q)) {
        best_uncovered = tr.uncov;
        best_attempt = std::move(tr.betas);
      }
    }
    if (trials_skipped) {
      if (stats) stats->deadline_hit = true;
      // Out of time mid-batch: fall through to row generation once, the
      // outer loop's own deadline check ends the search.
    }

    // Row generation: add the hardest still-violated sample rows of the
    // best attempt and re-solve.
    if (best_attempt.empty()) break;
    std::vector<std::uint32_t> uncov =
        check.kernel(stats).uncovered(best_attempt);
    for (std::uint32_t& r : uncov) r = check.rows()[r];
    std::stable_sort(uncov.begin(), uncov.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return ctx->hardness[a] < ctx->hardness[b];
                     });
    bool added = false;
    for (std::uint32_t rid : uncov) {
      if (in_lp[rid]) continue;
      in_lp[rid] = true;
      rows.push_back(rid);
      added = true;
      if (rows.size() >=
          static_cast<std::size_t>(opts.lp_sample_rows) *
              static_cast<std::size_t>(round + 2)) {
        break;
      }
    }
    if (!added && round > 0) break;  // LP already sees every hard row
  }

  if (opts.repair && !best_attempt.empty()) {
    // Pad with empty trees up to q so repair has full freedom.
    while (best_attempt.size() < static_cast<std::size_t>(q)) {
      best_attempt.push_back(0);
    }
    for (auto& b : best_attempt) {
      if (b == 0) b = 1;  // give the climber a starting bit
    }
    for (int attempt = 0; attempt < 4; ++attempt) {
      if (opts.deadline.expired()) {
        if (stats) stats->deadline_hit = true;
        break;
      }
      if (stats) ++stats->repairs;
      if (!repair_on(best_attempt, check.kernel(stats), table.num_bits,
                     opts.obs)) {
        break;
      }
      if (full_check(best_attempt)) {
        return prune_redundant(best_attempt, table, &ctx->kernel);
      }
      // full_check extended the sample with missed cases; repair again.
    }
  }
  return std::nullopt;
}

namespace {

/// Tries to shrink `best` by dropping one tree and hill-climb repairing the
/// remainder (screened against a spread sample that learns the full-table
/// rows each repair missed, full-table verified). Loops until no single
/// drop can be repaired.
void drop_and_repair(std::vector<ParityFunc>& best,
                     const DetectabilityTable& table,
                     const Algorithm1Options& opts, Algorithm1Stats* stats,
                     const SolverContext& ctx) {
  RowSet check(table);
  seed_verification_sample(check, table, opts.verify_sample_cap);
  bool improved = true;
  while (improved && best.size() > 1) {
    improved = false;
    for (std::size_t drop = 0; drop < best.size(); ++drop) {
      if (opts.deadline.expired()) {
        if (stats) stats->deadline_hit = true;
        return;
      }
      std::vector<ParityFunc> cand;
      cand.reserve(best.size() - 1);
      for (std::size_t i = 0; i < best.size(); ++i) {
        if (i != drop) cand.push_back(best[i]);
      }
      bool covered = false;
      for (int attempt = 0; attempt < 4; ++attempt) {
        if (stats) ++stats->repairs;
        if (!repair_on(cand, check.kernel(stats), table.num_bits, opts.obs)) {
          break;
        }
        const auto missed = ctx.kernel.uncovered(cand);
        if (missed.empty()) {
          covered = true;
          break;
        }
        for (std::size_t i = 0; i < missed.size() && i < 64; ++i) {
          check.add(missed[i]);
        }
      }
      if (covered) {
        best = prune_redundant(cand, table, &ctx.kernel);
        improved = true;
        break;
      }
    }
  }
}

}  // namespace

std::vector<ParityFunc> minimize_parity_functions(
    const DetectabilityTable& table, const Algorithm1Options& opts,
    Algorithm1Stats* stats, std::span<const ParityFunc> warm_start,
    const SolverContext* shared_ctx) {
  if (table.cases.empty()) {
    if (stats) stats->final_q = 0;
    return {};
  }

  // Instrumentation always reads through a non-null stats block so the
  // metric fold below works for callers that pass none.
  Algorithm1Stats local_stats;
  Algorithm1Stats* st = stats ? stats : &local_stats;
  const Algorithm1Stats entry = *st;  // fold deltas, not lifetime totals

  obs::ScopedSpan algo_span(opts.obs, "algorithm1");
  Algorithm1Options obs_opts = opts;
  obs_opts.obs = opts.obs.under(algo_span.id());

  // Everything that depends only on the table — the bit-sliced kernel and
  // the hardness ordering — is computed once and shared by the greedy
  // seeding, every q probed by the binary search, and the post-pass. The
  // cascade driver passes its own context down; standalone callers build
  // a local one.
  std::optional<SolverContext> local_ctx;
  if (shared_ctx == nullptr) local_ctx.emplace(table);
  const SolverContext& ctx = shared_ctx ? *shared_ctx : *local_ctx;

  // Greedy upper bound doubles as the fallback solution; it shares the
  // overall deadline so even the seeding degrades gracefully.
  GreedyOptions greedy_opts = opts.greedy;
  if (opts.deadline.armed() && !greedy_opts.deadline.armed()) {
    greedy_opts.deadline = opts.deadline;
  }
  greedy_opts.obs = obs_opts.obs;
  GreedyStats greedy_stats;
  const std::vector<ParityFunc> greedy =
      greedy_cover(table, greedy_opts, &greedy_stats, &ctx.kernel);
  if (stats && greedy_stats.deadline_hit) {
    stats->greedy_degraded = true;
    stats->deadline_hit = true;
  }
  std::vector<ParityFunc> best = greedy;
  bool from_greedy = true;
  const bool warm_covers = !warm_start.empty() &&
                           warm_start.size() <= best.size() &&
                           ctx.kernel.covers_all(warm_start);
  if (warm_covers) {
    best.assign(warm_start.begin(), warm_start.end());
    best = prune_redundant(best, table, &ctx.kernel);
    from_greedy = false;
  }

  int left = 1;
  int right = static_cast<int>(best.size());
  while (left < right) {
    if (opts.deadline.expired()) {
      // Out of time: the incumbent (greedy or a prior q's solution) is a
      // verified complete cover — return it instead of searching on.
      st->deadline_hit = true;
      break;
    }
    const int q = left + (right - left) / 2;
    st->qs_tried.push_back(q);
    obs::ScopedSpan probe(obs_opts.obs, "solve-q");
    probe.attr("q", std::to_string(q));
    Algorithm1Options probe_opts = obs_opts;
    probe_opts.obs = obs_opts.obs.under(probe.id());
    auto sol = solve_for_q(table, q, probe_opts, st, &ctx);
    probe.attr("cover", sol ? "yes" : "no");
    if (sol && sol->size() < best.size()) {
      best = std::move(*sol);
      from_greedy = false;
      right = static_cast<int>(best.size());
    } else if (sol) {
      // Found a cover but not smaller than current best; still shrink the
      // search window.
      right = q;
      from_greedy = false;
    } else {
      left = q + 1;
    }
  }

  if (opts.post_optimize && !opts.deadline.expired()) {
    obs::ScopedSpan post(obs_opts.obs, "post-optimize");
    Algorithm1Options post_opts = obs_opts;
    post_opts.obs = obs_opts.obs.under(post.id());
    const std::size_t before = best.size();
    drop_and_repair(best, table, post_opts, st, ctx);
    if (best.size() < before) from_greedy = false;
    // The incumbent may be a warm start the local search cannot shrink;
    // give the independent greedy solution the same chance when it ties.
    if (!from_greedy && greedy.size() <= best.size()) {
      std::vector<ParityFunc> alt = greedy;
      drop_and_repair(alt, table, post_opts, st, ctx);
      if (alt.size() < best.size()) best = std::move(alt);
    }
  }

  st->final_q = static_cast<int>(best.size());
  st->greedy_fallback = from_greedy;

  // Fold the search's metrics (deltas over this call, so a reused stats
  // block never double-counts) and annotate the span with the binary-search
  // trajectory. All write-only: nothing above ever read a sink.
  if (obs::MetricsRegistry* m = opts.obs.metrics) {
    obs::MetricsShard shard(m);
    shard.add("ced_solve_lp_solves_total",
              static_cast<std::uint64_t>(st->lp_solves - entry.lp_solves));
    shard.add("ced_solve_lp_pivots_total",
              static_cast<std::uint64_t>(st->lp_iterations -
                                         entry.lp_iterations));
    shard.add("ced_solve_lp_refactorizations_total",
              static_cast<std::uint64_t>(st->lp_refactorizations -
                                         entry.lp_refactorizations));
    shard.add("ced_solve_lp_warm_attempts_total",
              static_cast<std::uint64_t>(st->lp_warm_attempts -
                                         entry.lp_warm_attempts));
    shard.add("ced_solve_lp_warm_hits_total",
              static_cast<std::uint64_t>(st->lp_warm_hits -
                                         entry.lp_warm_hits));
    shard.add("ced_solve_roundings_total",
              static_cast<std::uint64_t>(st->roundings - entry.roundings));
    shard.add("ced_solve_repairs_total",
              static_cast<std::uint64_t>(st->repairs - entry.repairs));
    shard.add("ced_solve_kernel_case_evals_total",
              st->kernel_case_evals - entry.kernel_case_evals);
    shard.add("ced_solve_kernel_builds_total",
              st->kernel_builds - entry.kernel_builds);
    shard.add("ced_solve_q_probes_total",
              static_cast<std::uint64_t>(st->qs_tried.size() -
                                         entry.qs_tried.size()));
  }
  if (opts.obs.tracer != nullptr) {
    std::string qs;
    for (std::size_t i = entry.qs_tried.size(); i < st->qs_tried.size(); ++i) {
      if (!qs.empty()) qs += ",";
      qs += std::to_string(st->qs_tried[i]);
    }
    algo_span.attr("qs_tried", qs);
    algo_span.attr("final_q", std::to_string(st->final_q));
    algo_span.attr("greedy_fallback", from_greedy ? "yes" : "no");
  }
  return best;
}

}  // namespace ced::core
