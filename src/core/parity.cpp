#include "core/parity.hpp"

#include <bit>

#include "core/coverkernel.hpp"

namespace ced::core {
namespace {

/// Whether to route a one-shot query through a freshly built bit-sliced
/// kernel. Building costs one scatter pass over the rows, so it only pays
/// off for multi-beta queries on enough rows; both paths compute identical
/// results, so the threshold affects speed only.
bool route_to_kernel(std::size_t num_rows, std::size_t num_betas) {
  return num_betas >= 2 && num_rows >= 1024;
}

/// One pass over per-tree coverage bitmaps instead of the O(q^2 * m)
/// back-to-front re-verification loop (try dropping the last tree, keep
/// the drop if the rest still cover every row, move one tree forward).
/// Walking trees from the back, tree t is removable iff the union of
/// every earlier tree (all still present when that loop reaches t) and
/// every kept later tree already covers all rows — i.e. no row is covered
/// only by tree t. Prefix unions are precomputed and the kept-suffix
/// union accumulates during the walk, reproducing the loop's removal
/// order exactly.
std::vector<ParityFunc> prune_kernel(std::span<const ParityFunc> betas,
                                     const CoverKernel& kernel) {
  const std::size_t q = betas.size();
  const std::size_t W = kernel.num_words();
  std::vector<std::uint64_t> cov(q * W, 0);
  // All per-tree bitmaps in one blocked pass.
  CoverBatch(kernel).bitmaps(betas, cov.data());
  std::vector<std::uint64_t> pre((q + 1) * W, 0);
  for (std::size_t t = 0; t < q; ++t) {
    for (std::size_t w = 0; w < W; ++w) {
      pre[(t + 1) * W + w] = pre[t * W + w] | cov[t * W + w];
    }
  }
  std::vector<std::uint64_t> suf(W, 0);
  std::vector<char> keep(q, 1);
  for (std::size_t t = q; t-- > 0;) {
    if (kernel.union_is_full(pre.data() + t * W, suf.data())) {
      keep[t] = 0;
    } else {
      for (std::size_t w = 0; w < W; ++w) suf[w] |= cov[t * W + w];
    }
  }
  std::vector<ParityFunc> out;
  out.reserve(q);
  for (std::size_t t = 0; t < q; ++t) {
    if (keep[t]) out.push_back(betas[t]);
  }
  return out;
}

}  // namespace

bool covers_all(std::span<const ParityFunc> betas,
                const DetectabilityTable& table) {
  if (route_to_kernel(table.cases.size(), betas.size())) {
    return CoverKernel(table).covers_all(betas);
  }
  for (const ErroneousCase& ec : table.cases) {
    if (!covers(betas, ec)) return false;
  }
  return true;
}

std::vector<std::uint32_t> uncovered_cases(std::span<const ParityFunc> betas,
                                           const DetectabilityTable& table) {
  if (route_to_kernel(table.cases.size(), betas.size())) {
    return CoverKernel(table).uncovered(betas);
  }
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < table.cases.size(); ++i) {
    if (!covers(betas, table.cases[i])) {
      out.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return out;
}

std::vector<ParityFunc> prune_redundant(std::span<const ParityFunc> betas,
                                        const DetectabilityTable& table,
                                        const CoverKernel* kernel) {
  if (kernel != nullptr) return prune_kernel(betas, *kernel);
  return prune_kernel(betas, CoverKernel(table));
}

std::vector<ParityFunc> prune_redundant(std::span<const ParityFunc> betas,
                                        const DetectabilityTable& table) {
  return prune_redundant(betas, table, nullptr);
}

}  // namespace ced::core
