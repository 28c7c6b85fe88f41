#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "core/extract.hpp"

namespace ced::core {

/// A parity function: the XOR of the next-state/output bits selected by the
/// mask (bit j = observable bit b_{j+1}). The paper's beta vectors (§4).
using ParityFunc = std::uint64_t;

/// True iff the parity function covers the erroneous case: it detects the
/// fault effect at some step within the case's recorded path (Statement 1),
/// i.e. has odd overlap with one of its words. The zero words after the
/// path's steps have none.
inline bool covers(ParityFunc beta, const ErroneousCase& ec) {
  int odd = 0;
  for (const std::uint64_t w : ec.diff) odd |= std::popcount(beta & w);
  return (odd & 1) != 0;
}

/// True iff some function in the set covers the erroneous case. A set's
/// questions about a whole table (does it cover every case, which does it
/// miss) go to a CoverKernel (core/coverkernel.hpp), one engine pass per
/// set; the per-case loops over this check are test oracles
/// (tests/oracle/covers.hpp).
inline bool covers(std::span<const ParityFunc> betas,
                   const ErroneousCase& ec) {
  for (ParityFunc b : betas) {
    if (covers(b, ec)) return true;
  }
  return false;
}

class CoverKernel;

/// Drops parity functions that cover no case not already covered by the
/// rest (cheap post-pass; keeps earlier functions preferentially).
/// `kernel` is the table's full kernel (core/coverkernel.hpp), which the
/// solvers build once per table: one pass over its per-tree coverage
/// bitmaps drops exactly the functions the O(q^2 * m) back-to-front
/// re-verification loop would (the tests keep that loop as the
/// reference).
std::vector<ParityFunc> prune_redundant(std::span<const ParityFunc> betas,
                                        const CoverKernel& kernel);

}  // namespace ced::core
