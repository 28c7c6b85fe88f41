#include "core/ilp.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace ced::core {
namespace {

// Identity-key layout (see LpFormulation::var_key). The tag occupies the
// top nibble; the payload packs the defining indices. q, k and the bit
// index are all far below their field widths for any table this library
// builds (n <= 64 bits, k < latency, q <= n + latency).
constexpr std::uint64_t kBetaTag = 1ull << 60;
constexpr std::uint64_t kRTag = 2ull << 60;
constexpr std::uint64_t kStepRowTag = 4ull << 60;
constexpr std::uint64_t kCoverRowTag = 5ull << 60;

std::uint64_t beta_key(int l, int j) {
  return kBetaTag | (static_cast<std::uint64_t>(l) << 24) |
         static_cast<std::uint64_t>(j);
}

std::uint64_t step_key(std::uint64_t tag, std::uint32_t row, int l, int k) {
  return tag | (static_cast<std::uint64_t>(row) << 16) |
         (static_cast<std::uint64_t>(l) << 8) | static_cast<std::uint64_t>(k);
}

/// A key and the index it names, sorted by key, then index: among equal
/// keys the first occurrence comes first.
using KeyIndex = std::pair<std::uint64_t, std::uint32_t>;

/// The first occurrence of `key` in a sorted KeyIndex list, or nullptr.
const KeyIndex* first_of(const std::vector<KeyIndex>& sorted,
                         std::uint64_t key) {
  const auto it =
      std::lower_bound(sorted.begin(), sorted.end(), KeyIndex{key, 0});
  return it != sorted.end() && it->first == key ? &*it : nullptr;
}

void add_beta_variables(LpFormulation& f) {
  f.beta_var.resize(static_cast<std::size_t>(f.q) * f.n);
  for (int l = 0; l < f.q; ++l) {
    for (int j = 0; j < f.n; ++j) {
      f.beta_var[static_cast<std::size_t>(l) * f.n + j] =
          f.problem.add_variable(0.0, 1.0, 1.0);  // objective: sparsity
      f.var_key.push_back(beta_key(l, j));
    }
  }
  f.problem.set_objective_sense(lp::Objective::kMinimize);
}

}  // namespace

LpFormulation build_lp(const DetectabilityTable& table,
                       std::span<const std::uint32_t> rows, int q) {
  LpFormulation f;
  f.q = q;
  f.n = table.num_bits;
  add_beta_variables(f);

  // r^{(lk)}_i in [0,1]; only steps k < length(i) exist. The two term
  // buffers are refilled for every row; the problem copies each one.
  const std::uint64_t bits =
      f.n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << f.n) - 1;
  std::vector<lp::LpProblem::Term> terms, cover_terms;
  for (std::uint32_t row : rows) {
    const ErroneousCase& ec = table.cases[row];
    const int len = ec.length();
    cover_terms.clear();
    for (int l = 0; l < q; ++l) {
      const int* beta = &f.beta_var[static_cast<std::size_t>(l) * f.n];
      for (int k = 0; k < len; ++k) {
        const int r_var = f.problem.add_variable(0.0, 1.0, 0.0);
        // r - V(i,:,k) beta^{(l)} <= 0, written as kLe so the simplex can
        // seed the row's basis with its slack (no artificial needed).
        terms.clear();
        for (std::uint64_t w = ec.diff[static_cast<std::size_t>(k)] & bits;
             w != 0; w &= w - 1) {
          terms.emplace_back(beta[std::countr_zero(w)], -1.0);
        }
        terms.emplace_back(r_var, 1.0);
        f.problem.add_constraint(terms, lp::Relation::kLe, 0.0);
        f.var_key.push_back(step_key(kRTag, row, l, k));
        f.row_key.push_back(step_key(kStepRowTag, row, l, k));
        cover_terms.emplace_back(r_var, 1.0);
      }
    }
    // sum_{l,k} r^{(lk)}_i >= 1.
    f.problem.add_constraint(cover_terms, lp::Relation::kGe, 1.0);
    f.row_key.push_back(kCoverRowTag | row);
  }
  return f;
}

lp::BasisSnapshot map_basis_to(const LpBasisMemo& memo,
                               const LpFormulation& to) {
  lp::BasisSnapshot out;
  const int m = to.problem.num_constraints();
  const int nv = to.problem.num_variables();
  out.row_basic.assign(static_cast<std::size_t>(m), -1);
  out.at_upper.assign(static_cast<std::size_t>(nv), 0);

  // The target's variables by key.
  std::vector<KeyIndex> new_var(to.var_key.size());
  for (std::size_t v = 0; v < to.var_key.size(); ++v) {
    new_var[v] = {to.var_key[v], static_cast<std::uint32_t>(v)};
  }
  std::sort(new_var.begin(), new_var.end());
  // The remembered rows with a basic problem variable, by row key.
  std::vector<KeyIndex> mem_row;
  const std::size_t mem_rows =
      std::min(memo.row_key.size(), memo.snap.row_basic.size());
  mem_row.reserve(mem_rows);
  for (std::size_t i = 0; i < mem_rows; ++i) {
    const std::int32_t bv = memo.snap.row_basic[i];
    if (bv >= 0 && static_cast<std::size_t>(bv) < memo.var_key.size()) {
      mem_row.push_back({memo.row_key[i], static_cast<std::uint32_t>(i)});
    }
  }
  std::sort(mem_row.begin(), mem_row.end());
  // The keys of the remembered variables at their upper bounds.
  std::vector<std::uint64_t> upper;
  const std::size_t mem_vars =
      std::min(memo.var_key.size(), memo.snap.at_upper.size());
  for (std::size_t v = 0; v < mem_vars; ++v) {
    if (memo.snap.at_upper[v] != 0) upper.push_back(memo.var_key[v]);
  }
  std::sort(upper.begin(), upper.end());

  const int rows_known = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(m), to.row_key.size()));
  for (int i = 0; i < rows_known; ++i) {
    const KeyIndex* r =
        first_of(mem_row, to.row_key[static_cast<std::size_t>(i)]);
    if (r == nullptr) continue;
    const std::int32_t bv = memo.snap.row_basic[r->second];
    if (const KeyIndex* v = first_of(
            new_var, memo.var_key[static_cast<std::size_t>(bv)])) {
      out.row_basic[static_cast<std::size_t>(i)] =
          static_cast<std::int32_t>(v->second);
    }
  }
  const int vars_known = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(nv), to.var_key.size()));
  for (int v = 0; v < vars_known; ++v) {
    if (std::binary_search(upper.begin(), upper.end(),
                           to.var_key[static_cast<std::size_t>(v)])) {
      out.at_upper[static_cast<std::size_t>(v)] = 1;
    }
  }
  return out;
}

std::vector<std::vector<double>> beta_values(const LpFormulation& f,
                                             const lp::LpResult& r) {
  if (r.status != lp::Status::kOptimal) {
    throw std::invalid_argument("beta_values: LP was not solved");
  }
  std::vector<std::vector<double>> out(
      static_cast<std::size_t>(f.q),
      std::vector<double>(static_cast<std::size_t>(f.n), 0.0));
  for (int l = 0; l < f.q; ++l) {
    for (int j = 0; j < f.n; ++j) {
      out[static_cast<std::size_t>(l)][static_cast<std::size_t>(j)] =
          r.x[static_cast<std::size_t>(
              f.beta_var[static_cast<std::size_t>(l) * f.n + j])];
    }
  }
  return out;
}

}  // namespace ced::core
