#pragma once

// Product-form-of-inverse basis representation for the revised simplex.
//
// The basis inverse is never formed explicitly: it is the composition of
// sparse eta matrices, one per Gauss-Jordan pivot. Refactorization (driven
// by revised.cpp) rebuilds the file from the current basis columns.
//
// Cost model. A pivot whose eta is the identity — pivot exactly 1.0 and no
// off-pivot entries, which every basic slack of a kLe row gives — is
// counted but not stored: x / 1.0 == x, so skipping it is exact. The other
// etas are stored flat, their off-pivot entries in ascending row order.
// FTRAN visits every stored eta (one load and compare when the eta's pivot
// row is zero in x) and pays per entry only for the etas it applies; on a
// WorkColumn it also records the rows it fills, so callers scan, push and
// clear that pattern instead of all m rows. BTRAN pays every stored entry.
// A refactorized cover-LP file therefore holds the surplus logicals of the
// kGe rows, the structural columns and their fill, not m etas; the
// per-iteration FTRAN/BTRAN cost is that file's size, and a refactorization
// costs one FTRAN through the file built so far per structural column:
// O(s * (g + s)) eta visits for s structurals and g stored logicals.
//
// Everything here is deterministic: etas are applied in a fixed order and
// no tolerance-dependent entry dropping happens after construction.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace ced::lp {

/// Length-m work vector that records the rows it has filled: every nonzero
/// lies in pattern() (a row that cancelled back to 0.0 may stay listed),
/// so clearing, scanning and pushing cost the fill, not m.
class WorkColumn {
 public:
  /// m zero rows, empty pattern.
  void resize(int m) {
    val_.assign(static_cast<std::size_t>(m), 0.0);
    listed_.assign(static_cast<std::size_t>(m), 0);
    pattern_.clear();
  }

  /// Zeroes the listed rows and empties the pattern.
  void clear() {
    for (const std::int32_t r : pattern_) {
      val_[static_cast<std::size_t>(r)] = 0.0;
      listed_[static_cast<std::size_t>(r)] = 0;
    }
    pattern_.clear();
  }

  /// Writes `v` into row r and lists it (scattering a matrix column).
  void set(int r, double v) {
    val_[static_cast<std::size_t>(r)] = v;
    list(r);
  }

  double operator[](int r) const { return val_[static_cast<std::size_t>(r)]; }

  /// Sorts the pattern ascending, so a scan over it visits rows in the
  /// order a dense loop over all m rows would.
  void sort_pattern() { std::sort(pattern_.begin(), pattern_.end()); }

  std::span<const std::int32_t> pattern() const { return pattern_; }

 private:
  friend class EtaBasis;

  void list(int r) {
    if (listed_[static_cast<std::size_t>(r)] == 0) {
      listed_[static_cast<std::size_t>(r)] = 1;
      pattern_.push_back(r);
    }
  }

  std::vector<double> val_;
  std::vector<char> listed_;
  std::vector<std::int32_t> pattern_;
};

/// Eta file E_t ... E_1 representing B^{-1} (in permuted row order).
/// ftran computes B^{-1} x in place; btran computes B^{-T} y in place.
class EtaBasis {
 public:
  /// Empties the file (B = I).
  void reset();

  /// Pivots since reset(), stored or elided as identities: the caller's
  /// refactorization trigger counts these.
  std::size_t etas() const { return pivots_; }

  /// Appends the eta of a pivot at `row` on column `w`, already FTRANed
  /// through this file with its pattern sorted. w[row] must be nonzero —
  /// callers check against their pivot tolerance.
  void push(const WorkColumn& w, int row);

  /// Appends the eta of a pivot at `row` on the unit column pivot * e_row
  /// (a logical whose row no stored eta pivots on, so FTRAN leaves it
  /// unchanged).
  void push_unit(int row, double pivot);

  /// x := B^{-1} x. Zero pivot-row values short-circuit their eta.
  void ftran(std::vector<double>& x) const;

  /// The same on a work column, listing every row it fills.
  void ftran(WorkColumn& x) const;

  /// y := B^{-T} y (etas applied in reverse).
  void btran(std::vector<double>& y) const;

 private:
  /// Closes the eta whose off-pivot entries idx_/val_ gained since
  /// `first`; an identity eta is dropped.
  void close(int row, double pivot, std::size_t first);

  /// The FTRAN loop on a dense array; on_fill(i) hears of every row i an
  /// eta writes.
  template <class OnFill>
  void apply(double* x, OnFill on_fill) const;

  std::size_t pivots_ = 0;
  // Stored eta t pivots at row_[t] on pivot_[t]; its off-pivot entries are
  // idx_/val_[start_[t] .. start_[t + 1]).
  std::vector<std::int32_t> row_;
  std::vector<double> pivot_;
  std::vector<std::size_t> start_{0};
  std::vector<std::int32_t> idx_;
  std::vector<double> val_;
};

}  // namespace ced::lp
