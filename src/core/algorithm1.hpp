#pragma once

#include <chrono>
#include <optional>
#include <vector>

#include "core/coverkernel.hpp"
#include "core/extract.hpp"
#include "core/greedy.hpp"
#include "core/ilp.hpp"
#include "core/parity.hpp"
#include "obs/trace.hpp"

namespace ced::core {

/// Options for Algorithm 1 (LP relaxation + randomized rounding inside a
/// binary search on the number of parity trees q).
struct Algorithm1Options {
  /// ITER of the paper: rounding attempts per LP solution.
  int iter = 40;
  /// Delayed row generation: number of table rows in the initial LP (the
  /// hardest rows — fewest detecting bits — are chosen first). The full
  /// table is always used for the exact Statement-4 feasibility check.
  int lp_sample_rows = 48;
  /// Rounds of adding violated rows and re-solving.
  int row_rounds = 4;
  /// Roundings are screened against a sample of at most this many rows;
  /// a full exact Statement-4 check runs only on screen-passing candidates
  /// (and teaches the sample any rows it missed).
  std::size_t verify_sample_cap = 20'000;
  /// Hill-climb repair of the best near-miss rounding before giving up on
  /// one q (practical extension; disable for a paper-faithful solver).
  bool repair = true;
  /// After the binary search: repeatedly try dropping one tree from the
  /// incumbent and repairing the loss (practical extension that enforces
  /// solution quality independent of rounding luck; disable for a
  /// paper-faithful solver).
  bool post_optimize = true;
  /// Use the literal Statement-5 formulation (with w variables) instead of
  /// the reduced one. Slower; primarily for equivalence testing.
  bool use_statement5 = false;
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
  /// LP solver and the greedy seeding). On expiry the binary search stops
  /// and the best incumbent so far is returned — never nothing.
  Deadline deadline;
  /// Observability sinks (spans for the binary search and LP solves,
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
  /// True when the binary search never beat the greedy upper bound and the
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
  /// Rows the pipeline's solver actually saw after subset-dominance
  /// condensation (see core/coverkernel.hpp); 0 when condensation was
  /// disabled or the solver was invoked outside the pipeline; equals the
  /// table size when nothing was dominated.
  std::size_t condensed_cases = 0;
  std::vector<int> qs_tried;
  /// Screening-check row evaluations performed through the cover kernel
  /// (trial-batch granularity: executed trials x sample rows).
  /// Diagnostics only — never consulted by the search.
  std::uint64_t kernel_case_evals = 0;
  /// Subset cover kernels built over verification samples (one per sample
  /// state the screens, row generation and repairs queried).
  /// Diagnostics only — never consulted by the search.
  std::uint64_t kernel_builds = 0;
};

struct ResilienceReport;

/// Per-table precomputation shared by every q probed by the binary search
/// and by the post-optimization pass: the bit-sliced cover kernel plus the
/// hardness ordering of the rows (both depend only on the table, so they
/// are built once per cascade instead of per solve_for_q call). Standalone
/// solve_for_q callers get a local one automatically.
///
/// Since the Solver-interface redesign this struct also carries the
/// run-scoped state the cascade threads through every level (solver.hpp):
/// the shared deadline, the stats/resilience outputs, the warm start, and
/// the observability sinks. The constructor leaves all of it defaulted;
/// only the cascade driver (pipeline.cpp) fills it in.
struct SolverContext {
  explicit SolverContext(const DetectabilityTable& table);

  const DetectabilityTable* table;
  CoverKernel kernel;
  /// Detecting (bit, step) entry count per row (fewest = hardest: those
  /// rows constrain the LP the most and are sampled first).
  std::vector<int> hardness;
  /// Every row index, stably sorted by ascending hardness.
  std::vector<std::uint32_t> hard_order;

  // ---- run-scoped state (filled by the cascade driver, defaulted
  // ---- otherwise; solvers read these instead of taking five parameters).
  /// Shared wall-clock budget for the whole selection run.
  Deadline deadline;
  /// Optional diagnostics output (never read back by the solvers).
  Algorithm1Stats* stats = nullptr;
  /// Optional degradation audit trail for non-fatal events.
  ResilienceReport* resilience = nullptr;
  /// Optional incumbent seed (see minimize_parity_functions).
  std::span<const ParityFunc> warm_start;
  /// Observability sinks; parent_span scopes the per-level spans.
  obs::Sinks obs;
  /// When the cascade started (fallback events report seconds into it).
  std::chrono::steady_clock::time_point cascade_start =
      std::chrono::steady_clock::now();

  /// Basis memory of the most recent optimal LP solve over this table:
  /// the next formulation — the adjacent q probe of the binary search,
  /// the next row-generation round, or a re-solve after condensation
  /// rebuilt the context — maps it onto itself by identity keys
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

/// Algorithm 1: binary search on q (upper bound seeded by the greedy
/// solver, which also serves as the fallback solution). Returns a complete
/// cover; size is minimal up to rounding luck.
///
/// `warm_start` optionally seeds the incumbent: if it covers the table and
/// is smaller than the greedy solution it becomes the starting upper bound
/// (used by latency sweeps, where a p-cover always covers p+1's table).
/// `shared_ctx` (optional) reuses a caller-built kernel + hardness
/// precomputation for this same table (the cascade driver builds one
/// context for all levels); run-scoped fields of the context are ignored
/// here — the explicit parameters win.
std::vector<ParityFunc> minimize_parity_functions(
    const DetectabilityTable& table, const Algorithm1Options& opts = {},
    Algorithm1Stats* stats = nullptr,
    std::span<const ParityFunc> warm_start = {},
    const SolverContext* shared_ctx = nullptr);

}  // namespace ced::core
