#include "lp/simplex.hpp"

#include <cmath>
#include <stdexcept>

namespace ced::lp {

int LpProblem::add_variable(double lower, double upper, double objective) {
  if (!(lower <= upper)) throw std::invalid_argument("bad variable bounds");
  if (!std::isfinite(lower)) {
    throw std::invalid_argument("lower bound must be finite");
  }
  lower_.push_back(lower);
  upper_.push_back(upper);
  obj_.push_back(objective);
  return static_cast<int>(lower_.size()) - 1;
}

void LpProblem::add_constraint(std::span<const Term> terms, Relation rel,
                               double rhs) {
  for (const auto& [v, c] : terms) {
    (void)c;
    if (v < 0 || v >= num_variables()) {
      throw std::invalid_argument("constraint references unknown variable");
    }
  }
  terms_.insert(terms_.end(), terms.begin(), terms.end());
  row_start_.push_back(terms_.size());
  rels_.push_back(rel);
  rhs_.push_back(rhs);
}

}  // namespace ced::lp
