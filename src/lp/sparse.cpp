#include "lp/sparse.hpp"

#include <numeric>

#include "lp/simplex.hpp"

namespace ced::lp {

CscMatrix CscMatrix::standard_form(const LpProblem& p) {
  const int nv = p.num_variables();
  CscMatrix a;
  a.m_ = p.num_constraints();
  a.n_ = nv + a.m_;
  const auto col = [](int j) { return static_cast<std::size_t>(j); };

  // Column counts, one slot up, so the prefix sum turns them into starts.
  std::vector<std::size_t>& start = a.col_start_;
  start.assign(col(a.n_) + 1, 0);
  for (int i = 0; i < a.m_; ++i) {
    for (const auto& [v, c] : p.row(i)) ++start[col(v) + 1];
    start[col(nv + i) + 1] = 1;  // the row's logical
  }
  std::partial_sum(start.begin(), start.end(), start.begin());

  // Fill in row order. A variable repeated in a row finds its column's
  // last entry on this row and adds to it, so it is summed in term order.
  std::vector<Entry>& entries = a.entries_;
  entries.resize(start.back());
  std::vector<std::size_t> end(start.begin(), start.end() - 1);
  bool tidy = true;  // no repeat and no zero term: nothing to compact
  for (int i = 0; i < a.m_; ++i) {
    for (const auto& [v, c] : p.row(i)) {
      std::size_t& e = end[col(v)];
      if (e > start[col(v)] && entries[e - 1].row == i) {
        entries[e - 1].value += c;
        tidy = false;
      } else {
        entries[e++] = Entry{i, c};
        tidy = tidy && c != 0.0;
      }
    }
    const bool surplus =
        p.relations()[static_cast<std::size_t>(i)] == Relation::kGe;
    entries[end[col(nv + i)]++] = Entry{i, surplus ? -1.0 : 1.0};
  }
  if (tidy) return a;

  // Close the gaps repeats left and drop the entries that summed to zero.
  std::size_t out = 0;
  for (int j = 0; j < a.n_; ++j) {
    const std::size_t from = start[col(j)];
    start[col(j)] = out;
    for (std::size_t e = from; e < end[col(j)]; ++e) {
      if (entries[e].value != 0.0) entries[out++] = entries[e];
    }
  }
  start[col(a.n_)] = out;
  entries.resize(out);
  return a;
}

}  // namespace ced::lp
