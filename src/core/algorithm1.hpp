#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/coverkernel.hpp"
#include "core/extract.hpp"
#include "core/greedy.hpp"
#include "core/ilp.hpp"
#include "core/parity.hpp"
#include "obs/trace.hpp"

namespace ced::core {

/// Options for Algorithm 1 (LP relaxation + randomized rounding inside a
/// search on the number of parity trees q, probed downward from the
/// incumbent).
struct Algorithm1Options {
  /// ITER of the paper: rounding attempts per LP solution.
  int iter = 40;
  /// Rounds of adding violated rows and re-solving (delayed row
  /// generation: the initial LP holds the 48 hardest rows, and each round
  /// adds up to 48 more).
  int row_rounds = 4;
  /// Hill-climb repair of the best near-miss rounding before giving up on
  /// one q (practical extension; disable for a paper-faithful solver).
  bool repair = true;
  /// After the q search: repeatedly try dropping one tree from the
  /// incumbent and repairing the loss (practical extension that enforces
  /// solution quality independent of rounding luck; disable for a
  /// paper-faithful solver).
  bool post_optimize = true;
  std::uint64_t seed = 0xced;
  /// Worker threads for the randomized-rounding trials. Each trial draws
  /// from its own Rng stream derived from (seed, q, round, trial-index) and
  /// the first success by lowest trial index wins, so the selected parities
  /// are identical for every thread count (1 = serial, 0 = CED_THREADS env
  /// or hardware concurrency).
  int threads = 0;
  lp::SolverOptions lp;
  GreedyOptions greedy;
  /// Wall-clock budget for the whole Algorithm-1 search (forwarded to the
  /// LP solver and the greedy seeding). On expiry the q search stops
  /// and the best incumbent so far is returned — never nothing.
  Deadline deadline;
  /// Observability sinks (spans for the q probes and LP solves,
  /// counters for trials/repairs/pivots). Purely write-only diagnostics:
  /// the selected parities are byte-identical with sinks set or null.
  obs::Sinks obs;
};

struct Algorithm1Stats {
  int lp_solves = 0;
  int roundings = 0;
  int repairs = 0;
  int final_q = 0;
  /// Simplex pivots consumed across all LP solves.
  int lp_iterations = 0;
  /// Pivots spent in the revised solver's composite phase 1 (subset of
  /// lp_iterations). A working warm start shows up as this staying near
  /// zero after the first solve.
  int lp_phase1_iterations = 0;
  /// Basis refactorizations across all LP solves.
  int lp_refactorizations = 0;
  /// LP solves that received a mapped warm-start basis, and how many of
  /// those the solver structurally applied (dimensions matched and the
  /// basis survived factorization).
  int lp_warm_attempts = 0;
  int lp_warm_hits = 0;
  /// True when the q search never beat the greedy upper bound and the
  /// greedy solution was returned.
  bool greedy_fallback = false;
  /// True when an LP solve stopped on its iteration or time budget (the
  /// former silent `break` path — now recorded).
  bool lp_budget_hit = false;
  /// True when the wall-clock deadline cut the search short.
  bool deadline_hit = false;
  /// True when even the greedy seeding ran out of time and closed out with
  /// single-bit functions.
  bool greedy_degraded = false;
  /// Rows select_parities_resilient solved: the table's row count, which
  /// is already subset-minimal (DetectabilityTable::cases); 0 when the
  /// solver was invoked outside it.
  std::size_t condensed_cases = 0;
  std::vector<int> qs_tried;
  /// Screening-check row evaluations performed through the cover kernel
  /// (trial-batch granularity: executed trials x sample rows).
  /// Diagnostics only — never consulted by the search.
  std::uint64_t kernel_case_evals = 0;
  /// Verification-sample kernel states: one per sample state the screens,
  /// row generation and repairs queried, whether the sample's kernel was
  /// built or appended the sample's new rows to reach it.
  /// Diagnostics only — never consulted by the search.
  std::uint64_t kernel_builds = 0;
};

/// Per-table precomputation shared by every q probed by the search
/// and by the post-optimization pass: the bit-sliced cover kernel plus the
/// hardness ordering of the rows (both depend only on the table, so they
/// are built once per cascade instead of per solve_for_q call). Standalone
/// solve_for_q callers get a local one automatically.
struct SolverContext {
  explicit SolverContext(const DetectabilityTable& table);

  CoverKernel kernel;
  /// Detecting (bit, step) entry count per row (fewest = hardest: those
  /// rows constrain the LP the most and are sampled first).
  std::vector<int> hardness;
  /// Every row index, stably sorted by ascending hardness (a counting
  /// sort: hardness is at most 64 * kMaxLatency).
  std::vector<std::uint32_t> hard_order;

  /// Basis memory of the most recent optimal LP solve over this table:
  /// the next formulation — the next q probe (one tree fewer) or
  /// the next row-generation round — maps it onto itself by identity keys
  /// (core/ilp.hpp) and warm-starts from it. Mutable because probing q is
  /// logically const for the shared context; LP solves within one run are
  /// sequential, so no synchronization is needed.
  mutable std::optional<LpBasisMemo> lp_memo;
};

/// Tries to find q parity functions covering every case of the table:
/// LP relaxation (with delayed row generation), randomized rounding per
/// eq. (1), exact Statement-4 verification against the full table.
/// `ctx` (optional) shares the kernel and hardness precomputation across
/// calls; it must have been built for this same table.
std::optional<std::vector<ParityFunc>> solve_for_q(
    const DetectabilityTable& table, int q, const Algorithm1Options& opts = {},
    Algorithm1Stats* stats = nullptr, const SolverContext* ctx = nullptr);

/// Algorithm 1: search on q (upper bound seeded by the greedy solver,
/// which also serves as the fallback solution). It probes q = incumbent - 1
/// and stops at the first q that LP relaxation plus rounding cannot cover;
/// the paper bisects [1, incumbent) instead (DESIGN §5). Returns a complete
/// cover; size is minimal up to rounding luck.
///
/// `warm_start` optionally seeds the incumbent: if it covers the table and
/// is smaller than the greedy solution it becomes the starting upper bound
/// (used by latency sweeps, where a p-cover always covers p+1's table).
/// `shared_ctx` (optional) reuses a caller-built kernel + hardness
/// precomputation for this same table (the cascade driver builds one
/// context for both levels).
std::vector<ParityFunc> minimize_parity_functions(
    const DetectabilityTable& table, const Algorithm1Options& opts = {},
    Algorithm1Stats* stats = nullptr,
    std::span<const ParityFunc> warm_start = {},
    const SolverContext* shared_ctx = nullptr);

}  // namespace ced::core
