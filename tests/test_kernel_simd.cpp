// Cover-kernel engine (core/kernel_engine.hpp, common/cpu.hpp) against the
// per-case core::covers oracle. Every query — counts, bitmaps, uncovered
// lists, cursor flips, batched neighborhood probes, whole-set batch passes
// — must return exactly the bits a per-case loop gives, on tail-word
// shapes (rows % 64 != 0) and the n = 64 full-mask edge, both on the
// backend this host dispatches to and with the vector unit forcibly
// disabled (ScopedSimdLevel) so the fallback word loop is proven on every
// host. The solvers must select the same parity functions on both
// backends at 1 and 4 threads.

#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <set>
#include <span>
#include <vector>

#include "common/cpu.hpp"
#include "core/algorithm1.hpp"
#include "core/coverkernel.hpp"
#include "core/greedy.hpp"
#include "core/parity.hpp"

namespace ced::core {
namespace {

DetectabilityTable random_table(std::mt19937_64& rng, int n, std::size_t m,
                                int max_len) {
  DetectabilityTable t;
  t.num_bits = n;
  t.latency = max_len;
  const std::uint64_t mask =
      n >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
  std::uniform_int_distribution<int> len_dist(1, max_len);
  while (t.cases.size() < m) {
    std::set<std::uint64_t> words;
    const int len = len_dist(rng);
    for (int k = 0; k < len; ++k) {
      const std::uint64_t w = rng() & mask;
      if (w != 0) words.insert(w);
    }
    if (words.empty()) continue;
    ErroneousCase ec;
    ec.length = static_cast<std::uint8_t>(words.size());
    std::size_t k = 0;
    for (const std::uint64_t w : words) ec.diff[k++] = w;
    t.cases.push_back(ec);
  }
  return t;
}

ParityFunc random_beta(std::mt19937_64& rng, int n) {
  const std::uint64_t mask =
      n >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
  const std::uint64_t beta = rng() & mask;
  return beta != 0 ? beta : 1;
}

/// Oracle covered bitmap: bit r set iff core::covers(betas, case r).
std::vector<std::uint64_t> oracle_bitmap(std::span<const ParityFunc> betas,
                                         const DetectabilityTable& t) {
  std::vector<std::uint64_t> bits((t.cases.size() + 63) / 64, 0);
  for (std::size_t r = 0; r < t.cases.size(); ++r) {
    if (covers(betas, t.cases[r])) bits[r >> 6] |= std::uint64_t{1} << (r & 63);
  }
  return bits;
}

std::vector<std::uint64_t> oracle_bitmap(ParityFunc beta,
                                         const DetectabilityTable& t) {
  return oracle_bitmap(std::span<const ParityFunc>(&beta, 1), t);
}

std::size_t popcount_all(const std::vector<std::uint64_t>& bits) {
  std::size_t c = 0;
  for (const std::uint64_t w : bits) {
    c += static_cast<std::size_t>(std::popcount(w));
  }
  return c;
}

/// The backends every test runs on: whatever this host dispatches to, and
/// the plain word loop (the same level twice on hosts without a vector
/// unit).
const SimdLevel kLevels[] = {detected_simd_level(), SimdLevel::kNone};

// Tail words (rows % 64 != 0), a single-row table, and the n = 64
// full-mask edge; lengths span 1..kMaxLatency.
struct Shape {
  int n;
  std::size_t m;
  int max_len;
};
const Shape kShapes[] = {
    {5, 9, 1},  {13, 64, 2},          {31, 130, 3},
    {64, 1, 4}, {64, 193, kMaxLatency},
};

TEST(KernelSimd, CountsAndBitmapsMatchPerCaseOracle) {
  std::mt19937_64 rng(41);
  for (const Shape& s : kShapes) {
    const DetectabilityTable t = random_table(rng, s.n, s.m, s.max_len);
    std::vector<ParityFunc> betas;
    for (int i = 0; i < 24; ++i) betas.push_back(random_beta(rng, s.n));

    for (const SimdLevel level : kLevels) {
      const ScopedSimdLevel cap(level);
      const CoverKernel k(t);
      std::vector<std::uint64_t> bits(k.num_words());
      for (const ParityFunc beta : betas) {
        const auto want = oracle_bitmap(beta, t);
        EXPECT_EQ(k.coverage_count(beta), popcount_all(want))
            << to_string(level) << " n=" << s.n << " m=" << s.m;
        k.covered_bitmap(beta, bits.data());
        EXPECT_EQ(bits, want) << to_string(level) << " n=" << s.n
                              << " beta=" << beta;
      }
      std::vector<std::uint32_t> want_unc;
      for (std::size_t r = 0; r < t.cases.size(); ++r) {
        if (!covers(betas, t.cases[r])) {
          want_unc.push_back(static_cast<std::uint32_t>(r));
        }
      }
      EXPECT_EQ(k.uncovered(betas), want_unc) << to_string(level);
      EXPECT_EQ(k.uncovered_count(betas), want_unc.size()) << to_string(level);
      EXPECT_EQ(k.covers_all(betas), want_unc.empty()) << to_string(level);
    }
  }
}

TEST(KernelSimd, BatchMatchesPerCaseOracle) {
  std::mt19937_64 rng(43);
  for (const Shape& s : kShapes) {
    const DetectabilityTable t = random_table(rng, s.n, s.m, s.max_len);
    std::vector<ParityFunc> betas;
    for (int i = 0; i < 17; ++i) betas.push_back(random_beta(rng, s.n));

    for (const SimdLevel level : kLevels) {
      const ScopedSimdLevel cap(level);
      const CoverKernel k(t);
      const std::size_t W = k.num_words();
      CoverBatch batch(k);

      std::vector<std::size_t> got_counts(betas.size());
      batch.counts(betas, got_counts);
      std::vector<std::uint64_t> got_bits(betas.size() * W);
      batch.bitmaps(betas, got_bits.data());
      std::vector<std::uint64_t> got_acc(W, 0);
      batch.or_covered(betas, got_acc.data());

      for (std::size_t i = 0; i < betas.size(); ++i) {
        const auto want = oracle_bitmap(betas[i], t);
        EXPECT_EQ(got_counts[i], popcount_all(want))
            << to_string(level) << " n=" << s.n;
        EXPECT_EQ(std::vector<std::uint64_t>(got_bits.begin() + i * W,
                                             got_bits.begin() + (i + 1) * W),
                  want)
            << to_string(level) << " n=" << s.n << " i=" << i;
      }
      const auto want_union = oracle_bitmap(betas, t);
      EXPECT_EQ(got_acc, want_union) << to_string(level);
      EXPECT_EQ(batch.uncovered_count(betas),
                t.cases.size() - popcount_all(want_union))
          << to_string(level);

      const CoverBatch::Evaluation ev = batch.evaluate_many(betas);
      EXPECT_EQ(ev.counts, got_counts) << to_string(level);
      EXPECT_EQ(ev.bitmaps, got_bits) << to_string(level);
    }
  }
}

TEST(KernelSimd, CursorFlipsAndNeighborCountsMatchPerCaseOracle) {
  std::mt19937_64 rng(47);
  for (const Shape& s : kShapes) {
    const DetectabilityTable t = random_table(rng, s.n, s.m, s.max_len);
    std::vector<int> flips;
    for (int i = 0; i < 60; ++i) {
      flips.push_back(static_cast<int>(rng() % static_cast<unsigned>(s.n)));
    }
    std::vector<std::uint64_t> base((t.cases.size() + 63) / 64);
    for (auto& w : base) w = rng();
    if (t.cases.size() % 64 != 0) {
      base.back() &= (std::uint64_t{1} << (t.cases.size() % 64)) - 1;
    }

    for (const SimdLevel level : kLevels) {
      const ScopedSimdLevel cap(level);
      const CoverKernel k(t);
      BetaCursor cur(k, 1);
      for (const int j : flips) {
        if (cur.beta() == (std::uint64_t{1} << j)) continue;  // keep beta != 0
        cur.flip(j);
        EXPECT_EQ(cur.covered_count(),
                  popcount_all(oracle_bitmap(cur.beta(), t)))
            << to_string(level) << " n=" << s.n << " beta=" << cur.beta();
      }
      std::vector<std::size_t> neigh(static_cast<std::size_t>(s.n));
      std::vector<std::size_t> neigh_base(static_cast<std::size_t>(s.n));
      cur.neighbor_counts(neigh);
      cur.neighbor_counts(neigh_base, base.data());
      for (int j = 0; j < s.n; ++j) {
        const ParityFunc flipped = cur.beta() ^ (std::uint64_t{1} << j);
        const auto want = oracle_bitmap(flipped, t);
        EXPECT_EQ(neigh[static_cast<std::size_t>(j)], popcount_all(want))
            << to_string(level) << " n=" << s.n << " j=" << j;
        std::vector<std::uint64_t> with_base = want;
        for (std::size_t w = 0; w < with_base.size(); ++w) {
          with_base[w] |= base[w];
        }
        EXPECT_EQ(neigh_base[static_cast<std::size_t>(j)],
                  popcount_all(with_base))
            << to_string(level) << " n=" << s.n << " j=" << j;
      }
    }
  }
}

TEST(KernelSimd, ForcedFallbackMatchesVectorBackend) {
  std::mt19937_64 rng(53);
  const DetectabilityTable t = random_table(rng, 22, 517, 3);
  std::vector<ParityFunc> betas;
  for (int i = 0; i < 12; ++i) betas.push_back(random_beta(rng, 22));

  std::vector<std::size_t> native_counts(betas.size());
  std::vector<std::uint64_t> native_bits;
  {
    const CoverKernel k(t);
    CoverBatch batch(k);
    batch.counts(betas, native_counts);
    native_bits.resize(betas.size() * k.num_words());
    batch.bitmaps(betas, native_bits.data());
  }
  {
    // Cap the dispatch at kNone: the kernel must run the universal word
    // loop and produce the same bits.
    const ScopedSimdLevel cap(SimdLevel::kNone);
    ASSERT_EQ(simd_level(), SimdLevel::kNone);
    const CoverKernel k(t);
    CoverBatch batch(k);
    std::vector<std::size_t> counts(betas.size());
    batch.counts(betas, counts);
    EXPECT_EQ(counts, native_counts);
    std::vector<std::uint64_t> bits(betas.size() * k.num_words());
    batch.bitmaps(betas, bits.data());
    EXPECT_EQ(bits, native_bits);
  }
  // The cap is restored on scope exit.
  EXPECT_EQ(simd_level(), detected_simd_level());
}

TEST(KernelSimd, SubsetKernelMatchesPerCaseOracle) {
  std::mt19937_64 rng(59);
  const DetectabilityTable t = random_table(rng, 18, 300, 3);
  std::vector<std::uint32_t> rows;
  for (int i = 0; i < 77; ++i) {
    rows.push_back(static_cast<std::uint32_t>(rng() % t.cases.size()));
  }
  std::vector<ParityFunc> betas = {random_beta(rng, 18),
                                   random_beta(rng, 18),
                                   random_beta(rng, 18)};
  // Local (position-in-rows) indices of the rows the set misses.
  std::vector<std::uint32_t> want;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (!covers(betas, t.cases[rows[r]])) {
      want.push_back(static_cast<std::uint32_t>(r));
    }
  }
  for (const SimdLevel level : kLevels) {
    const ScopedSimdLevel cap(level);
    const CoverKernel k(t, rows);
    EXPECT_EQ(k.uncovered(betas), want) << to_string(level);
    CoverBatch batch(k);
    EXPECT_EQ(batch.uncovered_count(betas), want.size()) << to_string(level);
  }
}

// Pinned: the parity functions the former per-case solver paths selected
// on this table (Algorithm 1 and greedy happen to agree here).
const std::vector<ParityFunc> kSolverMasks = {0x101a, 0xcbba, 0x8102, 0x6,
                                              0x21};

TEST(KernelSimd, SolversIdenticalAcrossLevelsAndThreads) {
  std::mt19937_64 rng(61);
  const DetectabilityTable t = random_table(rng, 16, 900, 3);
  Algorithm1Options opts;
  opts.iter = 6;
  opts.row_rounds = 2;

  for (const SimdLevel level : kLevels) {
    const ScopedSimdLevel cap(level);
    for (const int threads : {1, 4}) {
      opts.threads = threads;
      EXPECT_EQ(minimize_parity_functions(t, opts), kSolverMasks)
          << to_string(level) << " threads=" << threads;
      EXPECT_EQ(greedy_cover(t), kSolverMasks)
          << to_string(level) << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace ced::core
