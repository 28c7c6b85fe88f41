#pragma once

// Compressed-sparse-column storage for the revised simplex
// (src/lp/revised.cpp). The cover LPs built by core/ilp.cpp are extremely
// sparse — r-variables touch two rows, slacks one, and only the beta
// columns fan out — so the solver stores the constraint matrix once in CSC
// form and prices/FTRANs against dense work vectors, paying per column
// nonzero instead of per tableau cell.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace ced::lp {

class LpProblem;

/// Immutable m x n sparse matrix in compressed-sparse-column layout.
/// Entries of one column are sorted by row index with duplicates already
/// accumulated, so every traversal is deterministic.
class CscMatrix {
 public:
  struct Entry {
    std::int32_t row = 0;
    double value = 0.0;
  };

  CscMatrix() = default;

  /// The constraint matrix [A | L] of p's standard form, as the revised
  /// simplex factorizes it: for m rows over nv variables, column j < nv is
  /// variable j's and column nv + i is row i's logical (+1 slack for kLe,
  /// -1 surplus for kGe, +1 fixed artificial for kEq). Laid out by one
  /// column-count pass over p's rows and one fill pass in row order, so
  /// each column's entries ascend by row; a variable repeated in a row is
  /// summed in term order, and an entry that sums to exactly zero is
  /// dropped.
  static CscMatrix standard_form(const LpProblem& p);

  int rows() const { return m_; }
  int cols() const { return n_; }
  std::size_t nonzeros() const { return entries_.size(); }

  std::span<const Entry> column(int j) const {
    return {entries_.data() + col_start_[static_cast<std::size_t>(j)],
            col_start_[static_cast<std::size_t>(j) + 1] -
                col_start_[static_cast<std::size_t>(j)]};
  }

  /// Dot product of column j with a dense vector of length rows().
  double column_dot(int j, const double* y) const {
    double s = 0.0;
    for (const Entry& e : column(j)) {
      s += e.value * y[static_cast<std::size_t>(e.row)];
    }
    return s;
  }

  /// x[row] += scale * value for every entry of column j.
  void column_axpy(int j, double scale, double* x) const {
    for (const Entry& e : column(j)) {
      x[static_cast<std::size_t>(e.row)] += scale * e.value;
    }
  }

 private:
  int m_ = 0, n_ = 0;
  std::vector<std::size_t> col_start_;  ///< n + 1 offsets into entries_
  std::vector<Entry> entries_;
};

}  // namespace ced::lp
