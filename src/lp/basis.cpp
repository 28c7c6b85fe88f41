#include "lp/basis.hpp"

namespace ced::lp {

void EtaBasis::reset() {
  pivots_ = 0;
  row_.clear();
  pivot_.clear();
  start_.assign(1, 0);
  idx_.clear();
  val_.clear();
}

void EtaBasis::push(const WorkColumn& w, int row) {
  const std::size_t first = idx_.size();
  for (const std::int32_t i : w.pattern()) {
    const double v = w[i];
    if (i != row && v != 0.0) {
      idx_.push_back(i);
      val_.push_back(v);
    }
  }
  close(row, w[row], first);
}

void EtaBasis::push_unit(int row, double pivot) {
  close(row, pivot, idx_.size());
}

void EtaBasis::close(int row, double pivot, std::size_t first) {
  ++pivots_;
  if (pivot == 1.0 && idx_.size() == first) return;  // identity
  row_.push_back(row);
  pivot_.push_back(pivot);
  start_.push_back(idx_.size());
}

template <class OnFill>
void EtaBasis::apply(double* x, OnFill on_fill) const {
  for (std::size_t t = 0; t < row_.size(); ++t) {
    double& xr = x[static_cast<std::size_t>(row_[t])];
    if (xr == 0.0) continue;  // eta leaves x untouched
    xr /= pivot_[t];
    for (std::size_t k = start_[t]; k < start_[t + 1]; ++k) {
      x[static_cast<std::size_t>(idx_[k])] -= val_[k] * xr;
      on_fill(idx_[k]);
    }
  }
}

void EtaBasis::ftran(std::vector<double>& x) const {
  apply(x.data(), [](std::int32_t) {});
}

void EtaBasis::ftran(WorkColumn& x) const {
  apply(x.val_.data(), [&x](std::int32_t i) { x.list(i); });
}

void EtaBasis::btran(std::vector<double>& y) const {
  for (std::size_t t = row_.size(); t-- > 0;) {
    double s = y[static_cast<std::size_t>(row_[t])];
    for (std::size_t k = start_[t]; k < start_[t + 1]; ++k) {
      s -= val_[k] * y[static_cast<std::size_t>(idx_[k])];
    }
    y[static_cast<std::size_t>(row_[t])] = s / pivot_[t];
  }
}

}  // namespace ced::lp
