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

/// True iff the parity function detects the erroneous case at step `k`
/// (odd overlap between the tree and the step's difference set).
inline bool detects_at(ParityFunc beta, const ErroneousCase& ec, int k) {
  return (std::popcount(beta & ec.diff[static_cast<std::size_t>(k)]) & 1) != 0;
}

/// True iff the parity function covers the erroneous case: it detects the
/// fault effect at some step within the case's recorded path (Statement 1).
inline bool covers(ParityFunc beta, const ErroneousCase& ec) {
  for (int k = 0; k < ec.length; ++k) {
    if (detects_at(beta, ec, k)) return true;
  }
  return false;
}

/// True iff some function in the set covers the erroneous case.
inline bool covers(std::span<const ParityFunc> betas,
                   const ErroneousCase& ec) {
  for (ParityFunc b : betas) {
    if (covers(b, ec)) return true;
  }
  return false;
}

/// True iff the parity set covers every case (the integer feasibility test
/// of Statement 4, evaluated exactly in GF(2)).
bool covers_all(std::span<const ParityFunc> betas,
                const DetectabilityTable& table);

/// Indices of cases not covered by the set.
std::vector<std::uint32_t> uncovered_cases(std::span<const ParityFunc> betas,
                                           const DetectabilityTable& table);

class CoverKernel;

/// Drops parity functions that cover no case not already covered by the
/// rest (cheap post-pass; keeps earlier functions preferentially). Runs in
/// one pass over per-tree coverage bitmaps on the bit-sliced kernel
/// (core/coverkernel.hpp) and drops exactly the functions the O(q^2 * m)
/// back-to-front re-verification loop would (the tests keep that loop as
/// the reference).
std::vector<ParityFunc> prune_redundant(std::span<const ParityFunc> betas,
                                        const DetectabilityTable& table);

/// Variant reusing a caller-held full-table kernel (built once per table by
/// the solvers); `kernel` may be null to build one internally.
std::vector<ParityFunc> prune_redundant(std::span<const ParityFunc> betas,
                                        const DetectabilityTable& table,
                                        const CoverKernel* kernel);

}  // namespace ced::core
