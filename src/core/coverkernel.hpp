#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/cpu.hpp"
#include "core/extract.hpp"
#include "core/parity.hpp"

namespace ced::core {

namespace detail {
struct KernelOps;
struct KernelShape;
}  // namespace detail

/// Bit-sliced (transposed) view of a DetectabilityTable, built once and
/// queried many times by the Statement-4 solvers. Every query runs on the
/// runtime-dispatched vector engine (AVX2 / NEON, see common/cpu.hpp —
/// the plain 64-bit word loop on hosts without a vector unit or under
/// ScopedSimdLevel(kNone)). The per-case core::covers loop
/// (core/parity.hpp) stays the reference oracle: all backends compute the
/// same exact GF(2) quantities, so q and the selected parity functions
/// never depend on the backend.
///
/// Layout: for every (step k, observable bit j) there is a column of
/// `num_words()` 64-bit words whose bit r is V(row r, j, k) — 64 cases per
/// word. Because parity of a popcount distributes over XOR,
///
///   parity(popcount(beta & diff_r[k])) = XOR_{j in beta} V(r, j, k),
///
/// the "beta detects row r at step k" bitmap over all rows is the XOR of
/// beta's selected columns, and the covered bitmap is the OR of those
/// per-step bitmaps. Evaluating one beta over M rows costs
/// ~popcount(beta) * steps * M/64 word ops instead of M * steps scalar
/// popcounts, and flipping a single bit of beta costs one column XOR per
/// step (see BetaCursor).
///
/// A kernel can be built over the whole table or over a row subset; local
/// row r of a subset kernel corresponds to table row rows[r] (queries
/// report local indices in `rows` order).
///
/// The kernel is immutable after construction and safe to share across
/// threads.
class CoverKernel {
 public:
  /// Full-table kernel: local row i == table row i.
  explicit CoverKernel(const DetectabilityTable& table);
  /// Subset kernel over `rows` (indices into table.cases; duplicates
  /// allowed — each occurrence gets its own local row, matching scalar
  /// iteration over the same list).
  CoverKernel(const DetectabilityTable& table,
              std::span<const std::uint32_t> rows);

  int num_bits() const { return n_; }
  /// Steps actually materialized: the maximum case length over the selected
  /// rows (<= kMaxLatency). Columns for steps beyond a row's length are 0.
  int num_steps() const { return steps_; }
  std::size_t num_rows() const { return m_; }
  /// Words per column (= ceil(num_rows / 64)).
  std::size_t num_words() const { return words_; }

  std::span<const std::uint64_t> column(int step, int bit) const {
    return {cols_.data() +
                (static_cast<std::size_t>(step) * static_cast<std::size_t>(n_) +
                 static_cast<std::size_t>(bit)) *
                    words_,
            words_};
  }

  /// Table row index of local row `local` (identity for full kernels).
  std::uint32_t global_row(std::uint32_t local) const {
    return rows_.empty() ? local : rows_[local];
  }

  /// Number of local rows covered by `beta`.
  std::size_t coverage_count(ParityFunc beta) const;

  /// Writes the covered bitmap of `beta` (num_words() words; padding bits
  /// beyond num_rows() are 0) into `out`.
  void covered_bitmap(ParityFunc beta, std::uint64_t* out) const;

  /// ORs the covered bitmap of `beta` into `acc` (num_words() words).
  void accumulate_covered(ParityFunc beta, std::uint64_t* acc) const;

  /// True iff the set covers every local row (exact Statement-4 test).
  bool covers_all(std::span<const ParityFunc> betas) const;

  /// Number of local rows not covered by the set.
  std::size_t uncovered_count(std::span<const ParityFunc> betas) const;

  /// Local rows not covered by the set, ascending (for a full kernel these
  /// are table row indices; for a subset kernel, positions in `rows`).
  std::vector<std::uint32_t> uncovered(std::span<const ParityFunc> betas) const;

  /// True iff (a | b) covers every local row; `a`/`b` are covered bitmaps
  /// of num_words() words. Used by the one-pass prune_redundant.
  bool union_is_full(const std::uint64_t* a, const std::uint64_t* b) const;

  /// Popcount of `bits` restricted to real rows (num_words() words).
  std::size_t count(const std::uint64_t* bits) const;

  /// Vector engine backing this kernel, captured once at construction
  /// from simd_level().
  const detail::KernelOps& engine() const { return *engine_; }

  /// Borrowed view of the column store for the engine passes.
  detail::KernelShape shape() const;

 private:
  void build(const DetectabilityTable& table,
             std::span<const std::uint32_t> rows);

  int n_ = 0;
  int steps_ = 0;
  std::size_t m_ = 0;
  std::size_t words_ = 0;
  std::uint64_t beta_mask_ = 0;  ///< low n_ bits
  std::vector<std::uint64_t> cols_;
  std::vector<std::uint32_t> rows_;  ///< empty = identity (full table)
  const detail::KernelOps* engine_ = nullptr;

#ifndef NDEBUG
  const DetectabilityTable* table_ = nullptr;  ///< scalar-oracle cross-check
#endif
};

/// Incremental single-beta evaluator over a CoverKernel: keeps the per-step
/// parity bitmaps of the current beta, so flipping one bit is one column
/// XOR per step (the hill-climb delta identity: XORing column (k, j) into
/// step bitmap k toggles exactly the rows whose step-k detection parity
/// changes when bit j of beta flips).
class BetaCursor {
 public:
  BetaCursor(const CoverKernel& kernel, ParityFunc beta);

  ParityFunc beta() const { return beta_; }

  /// Toggles bit `j` (0 <= j < kernel.num_bits()) of the beta.
  void flip(int j);

  /// Rows covered by the current beta.
  std::size_t covered_count() const;

  /// ORs the current covered bitmap into `acc` (num_words() words).
  void or_covered_into(std::uint64_t* acc) const;

  /// Single-flip neighborhood probe, batched: out[j] = covered count of
  /// the beta with bit j toggled, optionally ORed with `base`
  /// (num_words() words, e.g. the union of the other trees' covers in
  /// drop-and-repair). One pass over the whole column store shared by
  /// all num_bits() candidates — the hill-climb's inner loop collapsed
  /// into a single blocked sweep. out.size() must be >= num_bits().
  /// Exact: out[j] == (copy of *this after flip(j)).covered_count()
  /// (plus base) for every j.
  void neighbor_counts(std::span<std::size_t> out,
                       const std::uint64_t* base = nullptr) const;

 private:
  const CoverKernel* k_;
  ParityFunc beta_ = 0;
  /// steps * num_words() words: steps_[k*W + w].
  std::vector<std::uint64_t> steps_;
};

/// Batched cover evaluation over a CoverKernel: per-beta coverage counts
/// and/or bitmaps for a whole candidate set in one cache-blocked pass
/// over the (step x bit) column layout, so candidates share column loads
/// instead of each re-streaming the table (the per-beta loop costs
/// ~|betas| table walks; the batch costs one). Used by the Algorithm-1
/// concurrent-rounding trial screen and by prune_redundant; the batch is
/// defined by the same GF(2) math as the per-beta queries, so
/// batch-vs-loop results are identical (tests rely on this).
///
/// A CoverBatch borrows its kernel and owns only scratch; it is cheap to
/// construct and NOT thread-safe — give each thread its own.
class CoverBatch {
 public:
  /// Runs on the kernel's captured engine.
  explicit CoverBatch(const CoverKernel& kernel);

  const CoverKernel& kernel() const { return *k_; }

  /// Per-beta covered-row counts: out[i] = coverage_count(betas[i]).
  void counts(std::span<const ParityFunc> betas,
              std::span<std::size_t> out);

  /// Per-beta covered bitmaps: out + i*num_words() = covered_bitmap of
  /// betas[i]. `out` must hold betas.size() * num_words() words.
  void bitmaps(std::span<const ParityFunc> betas, std::uint64_t* out);

  /// acc |= union over betas of covered(beta) — the covers_all /
  /// uncovered_count screen for a whole candidate set in one pass.
  void or_covered(std::span<const ParityFunc> betas, std::uint64_t* acc);

  /// Rows NOT covered by the union of `betas` (the batched
  /// CoverKernel::uncovered_count).
  std::size_t uncovered_count(std::span<const ParityFunc> betas);

  struct Evaluation {
    std::vector<std::size_t> counts;    ///< per beta
    std::vector<std::uint64_t> bitmaps; ///< betas.size() * num_words()
  };

  /// Counts and bitmaps for the whole set in one blocked pass (plus one
  /// popcount sweep over the produced bitmaps).
  Evaluation evaluate_many(std::span<const ParityFunc> betas);

 private:
  /// Decomposes betas (masked to num_bits()) into the engine's bit-list
  /// form in owned scratch.
  void prepare(std::span<const ParityFunc> betas);

  const CoverKernel* k_;
  const detail::KernelOps* ops_;
  std::vector<int> bits_;               ///< flattened selected-bit indices
  std::vector<std::size_t> bit_count_;  ///< per beta
};

/// A detectability table with subset-dominated rows removed, plus the
/// back-map needed for verification and reporting.
struct CondensedTable {
  DetectabilityTable table;              ///< dominated rows removed
  std::vector<std::uint32_t> kept_rows;  ///< condensed row -> original row
  std::size_t removed = 0;               ///< rows dropped by dominance
};

/// Subset-dominance condensation (solution-preserving table shrink).
///
/// Cases are canonical sets of nonzero difference words; a parity function
/// covers a case iff it has odd overlap with SOME word of the set. So if
/// case A's word set is a proper subset of case B's, every cover of A also
/// covers B and B adds no constraint — it is deleted. Chains bottom out at
/// subset-minimal cases, which are always kept, so every removed row has a
/// kept row whose words are a subset of its own: a cover of the condensed
/// table provably covers the full table, and (condensed rows being a subset
/// of the original rows) the converse holds too — the optimal q is
/// unchanged. Exact duplicates were already merged during extraction.
///
/// Cost: one hash lookup per nonempty proper subset of each case's word
/// set — at most 2^kMaxLatency - 2 = 14 lookups per row.
CondensedTable condense_table(const DetectabilityTable& table);

}  // namespace ced::core
