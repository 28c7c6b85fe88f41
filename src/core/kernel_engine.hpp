#pragma once

// Internal engine behind every CoverKernel query: the blocked
// column-reduction passes, written once as templates over a tiny vector
// trait `V` (a register of V::kWords 64-bit lanes with load/store, XOR,
// OR and a lane-summed popcount) and instantiated per backend in
// kernel_simd.cpp (plain uint64_t always; AVX2 / NEON when the build and
// the host support them — see common/cpu.hpp).
//
// Every pass walks the row dimension (words) in vector-register chunks as
// the OUTER axis and the batch of betas as an inner axis, so each cache
// line of the (step x bit) column layout is loaded once per pass and
// reused by every beta that selects that column while it is L1-resident —
// the cache-blocked "many betas per column load" traversal, as opposed to
// streaming the columns once per beta. The math is exact bitwise GF(2)
// arithmetic in every backend, so results are byte-identical across the
// plain word loop, AVX2 and NEON by construction (and equal to the
// per-case core::covers oracle); only the traversal order of independent
// OR/XOR reductions differs, and those are associative and commutative.
//
// Not part of the public surface; include core/coverkernel.hpp instead.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/cpu.hpp"

namespace ced::core::detail {

/// Borrowed view of a CoverKernel's column store.
struct KernelShape {
  const std::uint64_t* cols = nullptr;  ///< [step][bit][stride words]
  int n = 0;                            ///< observable bits (columns per step)
  int steps = 0;
  std::size_t words = 0;   ///< words per column in use
  std::size_t stride = 0;  ///< words from one column's start to the next

  const std::uint64_t* column(int step, int bit) const {
    return cols + (static_cast<std::size_t>(step) *
                       static_cast<std::size_t>(n) +
                   static_cast<std::size_t>(bit)) *
                      stride;
  }
};

/// The per-backend entry points CoverKernel dispatches through. All
/// functions are exact. The set passes take `nb` betas (any nb, 0 and 1
/// included); a beta's bits at or above the shape's n select no column.
struct KernelOps {
  /// acc[w] |= OR over betas of covered(beta), one blocked pass.
  void (*or_covered)(const KernelShape&, const std::uint64_t* betas,
                     std::size_t nb, std::uint64_t* acc);
  /// out + b*words = covered bitmap of beta b, one blocked pass.
  void (*bitmaps)(const KernelShape&, const std::uint64_t* betas,
                  std::size_t nb, std::uint64_t* out);
  /// out[b] = popcount(covered(beta b)), one blocked pass.
  void (*counts)(const KernelShape&, const std::uint64_t* betas,
                 std::size_t nb, std::size_t* out);
  /// dst[w] ^= src[w] (BetaCursor flip).
  void (*xor_into)(std::uint64_t* dst, const std::uint64_t* src,
                   std::size_t words);
  /// popcount of the OR across `steps` consecutive rows of `rows`
  /// (stride `words`) — BetaCursor::covered_count.
  std::size_t (*or_rows_count)(const std::uint64_t* rows, int steps,
                               std::size_t words);
  /// acc[w] |= OR across rows — BetaCursor::or_covered_into.
  void (*or_rows_into)(const std::uint64_t* rows, int steps,
                       std::size_t words, std::uint64_t* acc);
  /// Single-bit-flip neighborhood of a cursor: for every bit j,
  ///   out[j] = popcount over w of
  ///            base[w] | OR_k (rows[k*words + w] ^ column(k, j)[w])
  /// with base treated as all-zero when null. One pass over the whole
  /// column store, shared by all n candidates (the hill-climb /
  /// drop-and-repair probe batch).
  void (*neighbor_counts)(const KernelShape&, const std::uint64_t* rows,
                          const std::uint64_t* base, std::size_t* out);
};

/// Scalar "vector" trait: one 64-bit lane. Always available; also the
/// model for the real vector traits in kernel_simd.cpp.
struct ScalarVec {
  using Reg = std::uint64_t;
  static constexpr std::size_t kWords = 1;
  static Reg zero() { return 0; }
  static Reg load(const std::uint64_t* p) { return *p; }
  static void store(std::uint64_t* p, Reg r) { *p = r; }
  static Reg xor_(Reg a, Reg b) { return a ^ b; }
  static Reg or_(Reg a, Reg b) { return a | b; }
  static std::size_t popcount(Reg r) {
    return static_cast<std::size_t>(std::popcount(r));
  }
};

/// Flattened per-(beta, step) column pointer lists: the passes iterate
/// selected columns by pointer instead of re-deriving (step*n + bit) *
/// words per access. Each beta is masked to the shape's n bits and its
/// columns listed in ascending bit order. One allocation per pass.
struct ColPlan {
  std::vector<const std::uint64_t*> ptrs;
  std::vector<std::size_t> start;  ///< (b*steps + k) -> index into ptrs
  void build(const KernelShape& s, const std::uint64_t* betas,
             std::size_t nb) {
    const std::uint64_t mask =
        s.n >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << s.n) - 1);
    ptrs.clear();
    start.assign(nb * static_cast<std::size_t>(s.steps) + 1, 0);
    std::size_t at = 0;
    for (std::size_t b = 0; b < nb; ++b) {
      for (int k = 0; k < s.steps; ++k) {
        start[b * static_cast<std::size_t>(s.steps) +
              static_cast<std::size_t>(k)] = at;
        for (std::uint64_t x = betas[b] & mask; x != 0; x &= x - 1) {
          ptrs.push_back(s.column(k, std::countr_zero(x)));
          ++at;
        }
      }
    }
    start.back() = at;
  }
  const std::uint64_t* const* cols(std::size_t b, int k,
                                   const KernelShape& s) const {
    return ptrs.data() +
           start[b * static_cast<std::size_t>(s.steps) +
                 static_cast<std::size_t>(k)];
  }
  std::size_t count(std::size_t b, int k, const KernelShape& s) const {
    const std::size_t i =
        b * static_cast<std::size_t>(s.steps) + static_cast<std::size_t>(k);
    return start[i + 1] - start[i];
  }
};

template <class V>
struct Engine {
  using Reg = typename V::Reg;

  /// XOR-reduce the `nc` column pointers at word offset `w`.
  static Reg xor_cols(const std::uint64_t* const* cols, std::size_t nc,
                      std::size_t w) {
    if (nc == 0) return V::zero();
    Reg x = V::load(cols[0] + w);
    for (std::size_t i = 1; i < nc; ++i) x = V::xor_(x, V::load(cols[i] + w));
    return x;
  }
  static std::uint64_t xor_cols_scalar(const std::uint64_t* const* cols,
                                       std::size_t nc, std::size_t w) {
    std::uint64_t x = 0;
    for (std::size_t i = 0; i < nc; ++i) x ^= cols[i][w];
    return x;
  }

  /// covered(beta b) at word/chunk offset `w`: OR over steps of the XOR of
  /// b's columns.
  static Reg covered_at(const KernelShape& s, const ColPlan& plan,
                        std::size_t b, std::size_t w) {
    Reg cov = V::zero();
    for (int k = 0; k < s.steps; ++k) {
      cov = V::or_(cov, xor_cols(plan.cols(b, k, s), plan.count(b, k, s), w));
    }
    return cov;
  }
  static std::uint64_t covered_at_scalar(const KernelShape& s,
                                         const ColPlan& plan, std::size_t b,
                                         std::size_t w) {
    std::uint64_t cov = 0;
    for (int k = 0; k < s.steps; ++k) {
      cov |= xor_cols_scalar(plan.cols(b, k, s), plan.count(b, k, s), w);
    }
    return cov;
  }

  static void or_covered(const KernelShape& s, const std::uint64_t* betas,
                         std::size_t nb, std::uint64_t* acc) {
    ColPlan plan;
    plan.build(s, betas, nb);
    std::size_t w = 0;
    for (; w + V::kWords <= s.words; w += V::kWords) {
      Reg a = V::load(acc + w);
      for (std::size_t b = 0; b < nb; ++b) {
        a = V::or_(a, covered_at(s, plan, b, w));
      }
      V::store(acc + w, a);
    }
    for (; w < s.words; ++w) {
      std::uint64_t a = acc[w];
      for (std::size_t b = 0; b < nb; ++b) {
        a |= covered_at_scalar(s, plan, b, w);
      }
      acc[w] = a;
    }
  }

  static void bitmaps(const KernelShape& s, const std::uint64_t* betas,
                      std::size_t nb, std::uint64_t* out) {
    ColPlan plan;
    plan.build(s, betas, nb);
    std::size_t w = 0;
    for (; w + V::kWords <= s.words; w += V::kWords) {
      for (std::size_t b = 0; b < nb; ++b) {
        V::store(out + b * s.words + w, covered_at(s, plan, b, w));
      }
    }
    for (; w < s.words; ++w) {
      for (std::size_t b = 0; b < nb; ++b) {
        out[b * s.words + w] = covered_at_scalar(s, plan, b, w);
      }
    }
  }

  static void counts(const KernelShape& s, const std::uint64_t* betas,
                     std::size_t nb, std::size_t* out) {
    ColPlan plan;
    plan.build(s, betas, nb);
    for (std::size_t b = 0; b < nb; ++b) out[b] = 0;
    std::size_t w = 0;
    for (; w + V::kWords <= s.words; w += V::kWords) {
      for (std::size_t b = 0; b < nb; ++b) {
        out[b] += V::popcount(covered_at(s, plan, b, w));
      }
    }
    for (; w < s.words; ++w) {
      for (std::size_t b = 0; b < nb; ++b) {
        out[b] += static_cast<std::size_t>(
            std::popcount(covered_at_scalar(s, plan, b, w)));
      }
    }
  }

  static void xor_into(std::uint64_t* dst, const std::uint64_t* src,
                       std::size_t words) {
    std::size_t w = 0;
    for (; w + V::kWords <= words; w += V::kWords) {
      V::store(dst + w, V::xor_(V::load(dst + w), V::load(src + w)));
    }
    for (; w < words; ++w) dst[w] ^= src[w];
  }

  static std::size_t or_rows_count(const std::uint64_t* rows, int steps,
                                   std::size_t words) {
    std::size_t c = 0;
    std::size_t w = 0;
    for (; w + V::kWords <= words; w += V::kWords) {
      Reg v = V::zero();
      for (int k = 0; k < steps; ++k) {
        v = V::or_(v, V::load(rows + static_cast<std::size_t>(k) * words + w));
      }
      c += V::popcount(v);
    }
    for (; w < words; ++w) {
      std::uint64_t v = 0;
      for (int k = 0; k < steps; ++k) {
        v |= rows[static_cast<std::size_t>(k) * words + w];
      }
      c += static_cast<std::size_t>(std::popcount(v));
    }
    return c;
  }

  static void or_rows_into(const std::uint64_t* rows, int steps,
                           std::size_t words, std::uint64_t* acc) {
    std::size_t w = 0;
    for (; w + V::kWords <= words; w += V::kWords) {
      Reg v = V::load(acc + w);
      for (int k = 0; k < steps; ++k) {
        v = V::or_(v, V::load(rows + static_cast<std::size_t>(k) * words + w));
      }
      V::store(acc + w, v);
    }
    for (; w < words; ++w) {
      std::uint64_t v = acc[w];
      for (int k = 0; k < steps; ++k) {
        v |= rows[static_cast<std::size_t>(k) * words + w];
      }
      acc[w] = v;
    }
  }

  static void neighbor_counts(const KernelShape& s, const std::uint64_t* rows,
                              const std::uint64_t* base, std::size_t* out) {
    for (int j = 0; j < s.n; ++j) out[j] = 0;
    std::size_t w = 0;
    for (; w + V::kWords <= s.words; w += V::kWords) {
      const Reg b = base != nullptr ? V::load(base + w) : V::zero();
      for (int j = 0; j < s.n; ++j) {
        Reg v = b;
        for (int k = 0; k < s.steps; ++k) {
          v = V::or_(v,
                     V::xor_(V::load(rows + static_cast<std::size_t>(k) *
                                                s.words +
                                            w),
                             V::load(s.column(k, j) + w)));
        }
        out[j] += V::popcount(v);
      }
    }
    for (; w < s.words; ++w) {
      const std::uint64_t b = base != nullptr ? base[w] : 0;
      for (int j = 0; j < s.n; ++j) {
        std::uint64_t v = b;
        for (int k = 0; k < s.steps; ++k) {
          v |= rows[static_cast<std::size_t>(k) * s.words + w] ^
               s.column(k, j)[w];
        }
        out[j] += static_cast<std::size_t>(std::popcount(v));
      }
    }
  }

  static constexpr KernelOps ops() {
    return KernelOps{&or_covered, &bitmaps,      &counts,
                     &xor_into,   &or_rows_count, &or_rows_into,
                     &neighbor_counts};
  }
};

/// The backend table for the level the host (and build) support; falls
/// back to the scalar word loop when no vector unit is available.
/// Defined in kernel_simd.cpp.
const KernelOps& kernel_ops(SimdLevel level);

}  // namespace ced::core::detail
