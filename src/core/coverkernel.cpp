#include "core/coverkernel.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "core/case_set.hpp"
#include "core/kernel_engine.hpp"

namespace ced::core {

// ---------------------------------------------------------------------------
// CoverKernel
// ---------------------------------------------------------------------------

CoverKernel::CoverKernel(const DetectabilityTable& table) {
  build(table, {});
}

CoverKernel::CoverKernel(const DetectabilityTable& table,
                         std::span<const std::uint32_t> rows) {
  rows_.assign(rows.begin(), rows.end());
  build(table, rows_);
}

void CoverKernel::build(const DetectabilityTable& table,
                        std::span<const std::uint32_t> rows) {
  n_ = table.num_bits;
  beta_mask_ = n_ >= 64 ? ~std::uint64_t{0}
                        : ((std::uint64_t{1} << n_) - 1);
  m_ = rows_.empty() ? table.cases.size() : rows_.size();
  words_ = (m_ + 63) / 64;
  // Backend is captured once here: a kernel keeps its engine for its
  // whole life, regardless of later ScopedSimdLevel flips.
  engine_ = &detail::kernel_ops(simd_level());
#ifndef NDEBUG
  table_ = &table;
#endif

  steps_ = 0;
  for (std::size_t r = 0; r < m_; ++r) {
    const ErroneousCase& ec =
        table.cases[rows_.empty() ? r : rows[r]];
    steps_ = std::max(steps_, static_cast<int>(ec.length));
  }
  cols_.assign(static_cast<std::size_t>(steps_) *
                   static_cast<std::size_t>(n_) * words_,
               0);

  // Scatter: bit j of diff word k of local row r sets bit r of column
  // (k, j). One pass over the selected rows.
  for (std::size_t r = 0; r < m_; ++r) {
    const ErroneousCase& ec =
        table.cases[rows_.empty() ? r : rows[r]];
    const std::uint64_t row_bit = std::uint64_t{1} << (r & 63);
    const std::size_t row_word = r >> 6;
    for (int k = 0; k < ec.length; ++k) {
      std::uint64_t w = ec.diff[static_cast<std::size_t>(k)] & beta_mask_;
      const std::size_t step_base = static_cast<std::size_t>(k) *
                                    static_cast<std::size_t>(n_) * words_;
      while (w != 0) {
        const int j = std::countr_zero(w);
        w &= w - 1;
        cols_[step_base + static_cast<std::size_t>(j) * words_ + row_word] |=
            row_bit;
      }
    }
  }
}

namespace {

std::uint64_t last_word_mask(std::size_t m) {
  const std::size_t rem = m & 63;
  return rem == 0 ? ~std::uint64_t{0} : ((std::uint64_t{1} << rem) - 1);
}

/// Decomposes a (pre-masked) beta into ascending bit indices for the
/// engine's BetaBits form. `bits` must hold 64 ints.
int decompose_beta(std::uint64_t beta, int* bits) {
  int c = 0;
  while (beta != 0) {
    bits[c++] = std::countr_zero(beta);
    beta &= beta - 1;
  }
  return c;
}

}  // namespace

detail::KernelShape CoverKernel::shape() const {
  return detail::KernelShape{cols_.data(), n_, steps_, words_};
}

void CoverKernel::covered_bitmap(ParityFunc beta, std::uint64_t* out) const {
  std::fill(out, out + words_, 0);
  accumulate_covered(beta, out);
}

void CoverKernel::accumulate_covered(ParityFunc beta,
                                     std::uint64_t* acc) const {
  beta &= beta_mask_;
  if (beta == 0 || m_ == 0) return;
  int bits[64];
  const detail::BetaBits bb{bits, decompose_beta(beta, bits)};
  engine_->or_covered(shape(), &bb, 1, acc);
}

std::size_t CoverKernel::count(const std::uint64_t* bits) const {
  std::size_t c = 0;
  for (std::size_t w = 0; w < words_; ++w) {
    c += static_cast<std::size_t>(std::popcount(bits[w]));
  }
  return c;
}

std::size_t CoverKernel::coverage_count(ParityFunc beta) const {
  const ParityFunc masked = beta & beta_mask_;
  if (m_ == 0 || masked == 0) return 0;
  int bits[64];
  const detail::BetaBits bb{bits, decompose_beta(masked, bits)};
  std::size_t c = 0;
  engine_->counts(shape(), &bb, 1, &c);
  return c;
}

bool CoverKernel::covers_all(std::span<const ParityFunc> betas) const {
  const bool full = uncovered_count(betas) == 0;
#ifndef NDEBUG
  // Scalar-oracle agreement (debug builds only).
  bool scalar = true;
  for (std::size_t r = 0; r < m_ && scalar; ++r) {
    scalar = covers(betas, table_->cases[global_row(
                               static_cast<std::uint32_t>(r))]);
  }
  assert(scalar == full && "CoverKernel::covers_all disagrees with scalar");
#endif
  return full;
}

std::size_t CoverKernel::uncovered_count(
    std::span<const ParityFunc> betas) const {
  if (m_ == 0) return 0;
  std::vector<std::uint64_t> acc(words_);
  for (const ParityFunc b : betas) accumulate_covered(b, acc.data());
  return m_ - count(acc.data());
}

std::vector<std::uint32_t> CoverKernel::uncovered(
    std::span<const ParityFunc> betas) const {
  std::vector<std::uint32_t> out;
  if (m_ == 0) return out;
  std::vector<std::uint64_t> acc(words_);
  for (const ParityFunc b : betas) accumulate_covered(b, acc.data());
  acc[words_ - 1] |= ~last_word_mask(m_);  // padding reads as covered
  for (std::size_t w = 0; w < words_; ++w) {
    std::uint64_t miss = ~acc[w];
    while (miss != 0) {
      const int b = std::countr_zero(miss);
      miss &= miss - 1;
      out.push_back(static_cast<std::uint32_t>((w << 6) + b));
    }
  }
#ifndef NDEBUG
  // Scalar-oracle agreement (debug builds only).
  std::vector<std::uint32_t> scalar;
  for (std::size_t r = 0; r < m_; ++r) {
    if (!covers(betas,
                table_->cases[global_row(static_cast<std::uint32_t>(r))])) {
      scalar.push_back(static_cast<std::uint32_t>(r));
    }
  }
  assert(scalar == out && "CoverKernel::uncovered disagrees with scalar");
#endif
  return out;
}

bool CoverKernel::union_is_full(const std::uint64_t* a,
                                const std::uint64_t* b) const {
  if (m_ == 0) return true;
  for (std::size_t w = 0; w + 1 < words_; ++w) {
    if ((a[w] | b[w]) != ~std::uint64_t{0}) return false;
  }
  return (a[words_ - 1] | b[words_ - 1] | ~last_word_mask(m_)) ==
         ~std::uint64_t{0};
}

// ---------------------------------------------------------------------------
// BetaCursor
// ---------------------------------------------------------------------------

BetaCursor::BetaCursor(const CoverKernel& kernel, ParityFunc beta)
    : k_(&kernel),
      steps_(static_cast<std::size_t>(kernel.num_steps()) *
                 kernel.num_words(),
             0) {
  beta &= kernel.num_bits() >= 64
              ? ~std::uint64_t{0}
              : ((std::uint64_t{1} << kernel.num_bits()) - 1);
  while (beta != 0) {
    const int j = std::countr_zero(beta);
    beta &= beta - 1;
    flip(j);
  }
}

void BetaCursor::flip(int j) {
  beta_ ^= std::uint64_t{1} << j;
  const std::size_t W = k_->num_words();
  const detail::KernelOps& ops = k_->engine();
  for (int k = 0; k < k_->num_steps(); ++k) {
    ops.xor_into(steps_.data() + static_cast<std::size_t>(k) * W,
                 k_->column(k, j).data(), W);
  }
}

std::size_t BetaCursor::covered_count() const {
  return k_->engine().or_rows_count(steps_.data(), k_->num_steps(),
                                    k_->num_words());
}

void BetaCursor::or_covered_into(std::uint64_t* acc) const {
  k_->engine().or_rows_into(steps_.data(), k_->num_steps(), k_->num_words(),
                            acc);
}

void BetaCursor::neighbor_counts(std::span<std::size_t> out,
                                 const std::uint64_t* base) const {
  assert(out.size() >= static_cast<std::size_t>(k_->num_bits()));
  k_->engine().neighbor_counts(k_->shape(), steps_.data(), base, out.data());
}

// ---------------------------------------------------------------------------
// CoverBatch
// ---------------------------------------------------------------------------

CoverBatch::CoverBatch(const CoverKernel& kernel)
    : k_(&kernel), ops_(&kernel.engine()) {}

void CoverBatch::prepare(std::span<const ParityFunc> betas) {
  bits_.clear();
  bit_count_.assign(betas.size(), 0);
  const std::uint64_t mask =
      k_->num_bits() >= 64
          ? ~std::uint64_t{0}
          : ((std::uint64_t{1} << k_->num_bits()) - 1);
  for (std::size_t i = 0; i < betas.size(); ++i) {
    std::uint64_t b = betas[i] & mask;
    bit_count_[i] = static_cast<std::size_t>(std::popcount(b));
    while (b != 0) {
      bits_.push_back(std::countr_zero(b));
      b &= b - 1;
    }
  }
}

namespace {

/// Builds the engine descriptors over CoverBatch's flattened scratch.
std::vector<detail::BetaBits> beta_descs(const std::vector<int>& bits,
                                         const std::vector<std::size_t>& cnt) {
  std::vector<detail::BetaBits> descs(cnt.size());
  std::size_t at = 0;
  for (std::size_t i = 0; i < cnt.size(); ++i) {
    descs[i] = detail::BetaBits{bits.data() + at, static_cast<int>(cnt[i])};
    at += cnt[i];
  }
  return descs;
}

}  // namespace

void CoverBatch::counts(std::span<const ParityFunc> betas,
                        std::span<std::size_t> out) {
  assert(out.size() >= betas.size());
  if (betas.empty()) return;
  if (k_->num_rows() == 0) {
    std::fill(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(
                                             betas.size()),
              0);
    return;
  }
  prepare(betas);
  const auto descs = beta_descs(bits_, bit_count_);
  ops_->counts(k_->shape(), descs.data(), descs.size(), out.data());
}

void CoverBatch::bitmaps(std::span<const ParityFunc> betas,
                         std::uint64_t* out) {
  if (betas.empty()) return;
  std::fill(out, out + betas.size() * k_->num_words(), 0);
  if (k_->num_rows() == 0) return;
  prepare(betas);
  const auto descs = beta_descs(bits_, bit_count_);
  ops_->bitmaps(k_->shape(), descs.data(), descs.size(), out);
}

void CoverBatch::or_covered(std::span<const ParityFunc> betas,
                            std::uint64_t* acc) {
  if (betas.empty() || k_->num_rows() == 0) return;
  prepare(betas);
  const auto descs = beta_descs(bits_, bit_count_);
  ops_->or_covered(k_->shape(), descs.data(), descs.size(), acc);
}

std::size_t CoverBatch::uncovered_count(std::span<const ParityFunc> betas) {
  if (k_->num_rows() == 0) return 0;
  std::vector<std::uint64_t> acc(k_->num_words(), 0);
  or_covered(betas, acc.data());
  return k_->num_rows() - k_->count(acc.data());
}

CoverBatch::Evaluation CoverBatch::evaluate_many(
    std::span<const ParityFunc> betas) {
  Evaluation ev;
  ev.counts.assign(betas.size(), 0);
  ev.bitmaps.assign(betas.size() * k_->num_words(), 0);
  if (betas.empty() || k_->num_rows() == 0) return ev;
  bitmaps(betas, ev.bitmaps.data());
  for (std::size_t i = 0; i < betas.size(); ++i) {
    ev.counts[i] = k_->count(ev.bitmaps.data() + i * k_->num_words());
  }
  return ev;
}

// ---------------------------------------------------------------------------
// Condensation
// ---------------------------------------------------------------------------

CondensedTable condense_table(const DetectabilityTable& table) {
  CondensedTable out;
  out.table = table;
  out.table.cases.clear();
  out.table.cases.reserve(table.cases.size());
  out.kept_rows.reserve(table.cases.size());

  const CaseSet all(table.cases);
  std::uint64_t probes = 0;
  for (std::size_t i = 0; i < table.cases.size(); ++i) {
    const ErroneousCase& ec = table.cases[i];
    if (dominated(ec, all, probes)) {
      ++out.removed;
    } else {
      out.kept_rows.push_back(static_cast<std::uint32_t>(i));
      out.table.cases.push_back(ec);
    }
  }
  return out;
}

}  // namespace ced::core
