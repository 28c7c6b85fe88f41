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

CoverKernel::CoverKernel(const DetectabilityTable& table)
    : CoverKernel(table, table.cases.size(), {}) {}

CoverKernel::CoverKernel(const DetectabilityTable& table,
                         std::span<const std::uint32_t> rows)
    : CoverKernel(table, rows.size(), {rows.begin(), rows.end()}) {}

CoverKernel::CoverKernel(const DetectabilityTable& table, std::size_t count,
                         std::vector<std::uint32_t> rows)
    : n_(table.num_bits),
      beta_mask_(n_ >= 64 ? ~std::uint64_t{0}
                          : ((std::uint64_t{1} << n_) - 1)),
      rows_(std::move(rows)),
      // Backend is captured once here: a kernel keeps its engine for its
      // whole life, regardless of later ScopedSimdLevel flips.
      engine_(&detail::kernel_ops(simd_level())) {
  write_rows(table, count);
}

void CoverKernel::append(const DetectabilityTable& table,
                         std::span<const std::uint32_t> rows) {
  assert((m_ == 0 || !rows_.empty()) &&
         "CoverKernel::append on a full kernel");
  rows_.insert(rows_.end(), rows.begin(), rows.end());
  write_rows(table, rows.size());
}

void CoverKernel::write_rows(const DetectabilityTable& table,
                             std::size_t count) {
  const std::size_t first = m_;
  m_ += count;
  int steps = steps_;
  for (std::size_t r = first; r < m_; ++r) {
    const ErroneousCase& ec =
        table.cases[global_row(static_cast<std::uint32_t>(r))];
    steps = std::max(steps, ec.length());
  }
  const std::size_t words = (m_ + 63) / 64;
  const std::size_t plane = static_cast<std::size_t>(n_);  // columns a step
  if (words > stride_) {
    // Out of capacity: the stride doubles (at least to `words`) and every
    // column moves to its new start. Words past a column's rows stay 0.
    const std::size_t stride = std::max(words, 2 * stride_);
    std::vector<std::uint64_t> cols(
        static_cast<std::size_t>(steps) * plane * stride, 0);
    const std::size_t columns = static_cast<std::size_t>(steps_) * plane;
    for (std::size_t c = 0; c < columns; ++c) {
      std::copy_n(cols_.data() + c * stride_, words_, cols.data() + c * stride);
    }
    cols_ = std::move(cols);
    stride_ = stride;
  } else {
    // A longer case adds zero step planes after the existing ones.
    cols_.resize(static_cast<std::size_t>(steps) * plane * stride_, 0);
  }
  steps_ = steps;
  words_ = words;

  // Scatter: bit j of diff word k of local row r sets bit r of column
  // (k, j). One pass over the new rows.
  for (std::size_t r = first; r < m_; ++r) {
    const ErroneousCase& ec =
        table.cases[global_row(static_cast<std::uint32_t>(r))];
    const std::uint64_t row_bit = std::uint64_t{1} << (r & 63);
    const std::size_t row_word = r >> 6;
    const int len = ec.length();
    for (int k = 0; k < len; ++k) {
      std::uint64_t w = ec.diff[static_cast<std::size_t>(k)] & beta_mask_;
      const std::size_t step_base =
          static_cast<std::size_t>(k) * plane * stride_;
      while (w != 0) {
        const int j = std::countr_zero(w);
        w &= w - 1;
        cols_[step_base + static_cast<std::size_t>(j) * stride_ + row_word] |=
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

}  // namespace

detail::KernelShape CoverKernel::shape() const {
  return detail::KernelShape{cols_.data(), n_, steps_, words_, stride_};
}

std::size_t CoverKernel::count(const std::uint64_t* bits) const {
  std::size_t c = 0;
  for (std::size_t w = 0; w < words_; ++w) {
    c += static_cast<std::size_t>(std::popcount(bits[w]));
  }
  return c;
}

void CoverKernel::counts(std::span<const ParityFunc> betas,
                         std::span<std::size_t> out) const {
  assert(out.size() >= betas.size());
  engine_->counts(shape(), betas.data(), betas.size(), out.data());
}

void CoverKernel::bitmaps(std::span<const ParityFunc> betas,
                          std::uint64_t* out) const {
  engine_->bitmaps(shape(), betas.data(), betas.size(), out);
}

void CoverKernel::or_covered(std::span<const ParityFunc> betas,
                             std::uint64_t* acc) const {
  engine_->or_covered(shape(), betas.data(), betas.size(), acc);
}

bool CoverKernel::covers_all(std::span<const ParityFunc> betas) const {
  return uncovered_count(betas) == 0;
}

std::size_t CoverKernel::uncovered_count(
    std::span<const ParityFunc> betas) const {
  std::vector<std::uint64_t> acc(words_, 0);
  or_covered(betas, acc.data());
  return m_ - count(acc.data());
}

std::vector<std::uint32_t> CoverKernel::uncovered(
    std::span<const ParityFunc> betas) const {
  std::vector<std::uint32_t> out;
  if (m_ == 0) return out;
  std::vector<std::uint64_t> acc(words_, 0);
  or_covered(betas, acc.data());
  acc[words_ - 1] |= ~last_word_mask(m_);  // padding reads as covered
  for (std::size_t w = 0; w < words_; ++w) {
    std::uint64_t miss = ~acc[w];
    while (miss != 0) {
      const int b = std::countr_zero(miss);
      miss &= miss - 1;
      out.push_back(static_cast<std::uint32_t>((w << 6) + b));
    }
  }
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
