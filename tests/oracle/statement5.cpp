#include "oracle/statement5.hpp"

#include <cstddef>
#include <utility>
#include <vector>

namespace ced::core {

lp::LpProblem build_lp_statement5(const DetectabilityTable& table,
                                  std::span<const std::uint32_t> rows, int q) {
  lp::LpProblem lp;
  const int n = table.num_bits;
  // beta^{(l)}_j in [0,1], cost 1 each (build_lp's sparsity objective).
  std::vector<int> beta_var(static_cast<std::size_t>(q) * n);
  for (int l = 0; l < q; ++l) {
    for (int j = 0; j < n; ++j) {
      beta_var[static_cast<std::size_t>(l) * n + j] =
          lp.add_variable(0.0, 1.0, 1.0);
    }
  }
  lp.set_objective_sense(lp::Objective::kMinimize);

  const double w_upper = static_cast<double>(n) / 2.0;
  for (std::uint32_t row : rows) {
    const ErroneousCase& ec = table.cases[row];
    const int len = ec.length();
    std::vector<std::pair<int, double>> cover_terms;
    for (int l = 0; l < q; ++l) {
      for (int k = 0; k < len; ++k) {
        const int r_var = lp.add_variable(0.0, 1.0, 0.0);
        const int w_var = lp.add_variable(0.0, w_upper, 0.0);
        // V(i,:,k) beta^{(l)} = 2 w + r.
        std::vector<std::pair<int, double>> terms;
        for (int j = 0; j < n; ++j) {
          if ((ec.diff[static_cast<std::size_t>(k)] >> j) & 1) {
            terms.emplace_back(beta_var[static_cast<std::size_t>(l) * n + j],
                               1.0);
          }
        }
        terms.emplace_back(w_var, -2.0);
        terms.emplace_back(r_var, -1.0);
        lp.add_constraint(terms, lp::Relation::kEq, 0.0);
        cover_terms.emplace_back(r_var, 1.0);
      }
    }
    // sum_{l,k} r^{(lk)}_i >= 1.
    lp.add_constraint(cover_terms, lp::Relation::kGe, 1.0);
  }
  return lp;
}

}  // namespace ced::core
