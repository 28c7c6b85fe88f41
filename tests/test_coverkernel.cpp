// Bit-sliced cover kernel (core/coverkernel.hpp): randomized equivalence
// against the per-case core::covers oracle, condensation soundness, and
// result identity for every solver that routes through the kernel — on
// the dispatched SIMD backend and the forced word-loop fallback, at 1 and
// 4 threads, against references kept here (a back-to-front prune loop, a
// brute-force minimum q) and masks pinned from the former per-case solver
// paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <random>
#include <set>
#include <span>
#include <vector>

#include "benchdata/suite.hpp"
#include "common/cpu.hpp"
#include "common/exec.hpp"
#include "core/algorithm1.hpp"
#include "core/coverkernel.hpp"
#include "core/exact.hpp"
#include "core/extract.hpp"
#include "core/greedy.hpp"
#include "core/parity.hpp"
#include "core/pipeline.hpp"
#include "fsm/synthesize.hpp"
#include "sim/faults.hpp"

namespace ced::core {
namespace {

/// Random table in canonical form: each case is a sorted set of 1..max_len
/// distinct nonzero difference words over n bits.
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

std::size_t scalar_count(ParityFunc beta, const DetectabilityTable& t) {
  std::size_t c = 0;
  for (const ErroneousCase& ec : t.cases) c += covers(beta, ec) ? 1 : 0;
  return c;
}

DetectabilityTable suite_table(const std::string& name, int p) {
  const fsm::Fsm f = benchdata::suite_fsm(name);
  const fsm::FsmCircuit c =
      fsm::synthesize_fsm(f, fsm::EncodingKind::kBinary, {});
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions opts;
  opts.latency = p;
  opts.threads = 1;
  return extract_cases(c, faults, opts);
}

// Sizes cross the 64-row word boundary and include the n = 64 full-mask
// edge; lengths span 1..kMaxLatency.
struct Shape {
  int n;
  std::size_t m;
  int max_len;
};
const Shape kShapes[] = {
    {4, 7, 1},   {12, 64, 2},        {33, 130, 3},
    {64, 1, 4},  {64, 200, kMaxLatency},
};

TEST(CoverKernel, MatchesScalarOnRandomTables) {
  std::mt19937_64 rng(1);
  for (const Shape& s : kShapes) {
    const DetectabilityTable t = random_table(rng, s.n, s.m, s.max_len);
    const CoverKernel kernel(t);
    ASSERT_EQ(kernel.num_rows(), t.cases.size());
    ASSERT_EQ(kernel.num_bits(), s.n);

    std::vector<ParityFunc> set;
    for (int i = 0; i < 16; ++i) {
      const ParityFunc beta = random_beta(rng, s.n);
      set.push_back(beta);
      EXPECT_EQ(kernel.coverage_count(beta), scalar_count(beta, t))
          << "n=" << s.n << " m=" << s.m << " beta=" << beta;
      std::vector<std::uint64_t> bitmap(kernel.num_words());
      kernel.covered_bitmap(beta, bitmap.data());
      for (std::size_t r = 0; r < t.cases.size(); ++r) {
        EXPECT_EQ((bitmap[r >> 6] >> (r & 63)) & 1,
                  covers(beta, t.cases[r]) ? 1u : 0u);
      }
      // Padding bits beyond num_rows stay zero.
      if (t.cases.size() % 64 != 0) {
        EXPECT_EQ(bitmap.back() >> (t.cases.size() % 64), 0u);
      }
    }
    // Set queries against the per-case oracle.
    std::vector<std::uint32_t> want;
    for (std::size_t r = 0; r < t.cases.size(); ++r) {
      if (!covers(set, t.cases[r])) {
        want.push_back(static_cast<std::uint32_t>(r));
      }
    }
    EXPECT_EQ(kernel.covers_all(set), want.empty());
    EXPECT_EQ(kernel.uncovered(set), want);
    EXPECT_EQ(kernel.uncovered_count(set), want.size());
  }
}

TEST(CoverKernel, SubsetKernelMatchesScalarAmong) {
  std::mt19937_64 rng(2);
  const DetectabilityTable t = random_table(rng, 20, 300, 3);
  // Random subset with duplicates, in random order.
  std::vector<std::uint32_t> rows;
  for (int i = 0; i < 90; ++i) {
    rows.push_back(static_cast<std::uint32_t>(rng() % t.cases.size()));
  }
  const CoverKernel kernel(t, rows);
  ASSERT_EQ(kernel.num_rows(), rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(kernel.global_row(static_cast<std::uint32_t>(r)), rows[r]);
  }
  for (int i = 0; i < 8; ++i) {
    std::vector<ParityFunc> set = {random_beta(rng, 20), random_beta(rng, 20)};
    std::vector<std::uint32_t> got, want;
    for (const std::uint32_t local : kernel.uncovered(set)) {
      got.push_back(rows[local]);
    }
    for (const std::uint32_t r : rows) {
      if (!covers(set, t.cases[r])) want.push_back(r);
    }
    EXPECT_EQ(got, want);
  }
}

TEST(BetaCursor, FlipMatchesFreshEvaluation) {
  std::mt19937_64 rng(3);
  for (const Shape& s : kShapes) {
    const DetectabilityTable t = random_table(rng, s.n, s.m, s.max_len);
    const CoverKernel kernel(t);
    BetaCursor cur(kernel, 0);
    ParityFunc beta = 0;
    for (int step = 0; step < 200; ++step) {
      const int j = static_cast<int>(rng() % static_cast<unsigned>(s.n));
      cur.flip(j);
      beta ^= std::uint64_t{1} << j;
      ASSERT_EQ(cur.beta(), beta);
      ASSERT_EQ(cur.covered_count(), scalar_count(beta, t))
          << "n=" << s.n << " after flip " << step;
    }
  }
}

TEST(Condense, RemovedRowsAreDominatedByKeptRows) {
  std::mt19937_64 rng(4);
  // Low-entropy words so subset relations actually occur.
  const DetectabilityTable t = random_table(rng, 3, 400, kMaxLatency);
  const CondensedTable cond = condense_table(t);
  ASSERT_EQ(cond.kept_rows.size(), cond.table.cases.size());
  ASSERT_EQ(cond.removed + cond.table.cases.size(), t.cases.size());
  EXPECT_GT(cond.removed, 0u);  // with 7 possible words, dominance is certain

  // Back-map is consistent.
  for (std::size_t i = 0; i < cond.kept_rows.size(); ++i) {
    EXPECT_EQ(cond.table.cases[i], t.cases[cond.kept_rows[i]]);
  }
  // Every removed row strictly contains some kept row's word set.
  std::set<std::uint32_t> kept(cond.kept_rows.begin(), cond.kept_rows.end());
  auto words_of = [](const ErroneousCase& ec) {
    return std::set<std::uint64_t>(ec.diff.begin(), ec.diff.begin() + ec.length);
  };
  for (std::uint32_t r = 0; r < t.cases.size(); ++r) {
    if (kept.count(r)) continue;
    const auto big = words_of(t.cases[r]);
    bool dominated = false;
    for (const ErroneousCase& kc : cond.table.cases) {
      const auto small = words_of(kc);
      if (small.size() < big.size() &&
          std::includes(big.begin(), big.end(), small.begin(), small.end())) {
        dominated = true;
        break;
      }
    }
    EXPECT_TRUE(dominated) << "removed row " << r << " has no kept subset row";
  }
}

TEST(Condense, CondensedCoverCoversFullTable) {
  std::mt19937_64 rng(5);
  for (const int n : {3, 5, 16}) {
    const DetectabilityTable t = random_table(rng, n, 500, kMaxLatency);
    const CondensedTable cond = condense_table(t);
    const auto sol = greedy_cover(cond.table);
    EXPECT_TRUE(covers_all(sol, cond.table));
    EXPECT_TRUE(covers_all(sol, t))
        << "n=" << n << ": condensed cover missed a full-table row";
  }
}

TEST(Condense, FinalQUnchangedOnBenchdata) {
  for (const char* name : {"s27", "tav", "donfile"}) {
    const DetectabilityTable t = suite_table(name, 2);
    // The raw-table q: Algorithm 1 on the uncondensed table, which is what
    // the cascade's LP level runs when nothing condenses it first.
    Algorithm1Options algo;
    algo.threads = 1;
    const auto raw = minimize_parity_functions(t, algo);
    EXPECT_TRUE(covers_all(raw, t));
    PipelineOptions opts;
    opts.exec.threads = 1;
    Algorithm1Stats stats;
    ResilienceReport resilience;
    const auto sol = select_parities_resilient(t, opts, Deadline{}, &stats,
                                               {}, resilience);
    EXPECT_TRUE(covers_all(sol, t));
    EXPECT_EQ(raw.size(), sol.size())
        << name << ": condensation changed the final q";
  }
}

/// Runs `fn(level, threads)` on the backend this host dispatches to and on
/// the forced word-loop fallback, each at an ambient 1 and 4 threads.
template <typename Fn>
void on_every_backend(Fn&& fn) {
  for (const SimdLevel level : {detected_simd_level(), SimdLevel::kNone}) {
    const ScopedSimdLevel cap(level);
    for (const int threads : {1, 4}) {
      const ScopedExecPolicy policy({.threads = threads});
      fn(level, threads);
    }
  }
}

/// Reference prune: try dropping each tree from the back, keep the drop
/// when the remaining set still covers every case (per-case check).
std::vector<ParityFunc> prune_reference(std::span<const ParityFunc> betas,
                                        const DetectabilityTable& t) {
  std::vector<ParityFunc> kept(betas.begin(), betas.end());
  for (std::size_t i = kept.size(); i-- > 0;) {
    std::vector<ParityFunc> trial = kept;
    trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(i));
    const bool all = std::all_of(
        t.cases.begin(), t.cases.end(),
        [&](const ErroneousCase& ec) { return covers(trial, ec); });
    if (all) kept = std::move(trial);
  }
  return kept;
}

/// Brute-force minimum cover size over all 2^n - 1 parity functions
/// (tables of at most 64 cases).
std::size_t brute_force_min_q(const DetectabilityTable& t) {
  const ParityFunc last = (ParityFunc{1} << t.num_bits) - 1;
  std::vector<std::uint64_t> cov(last + 1, 0);
  for (ParityFunc beta = 1; beta <= last; ++beta) {
    for (std::size_t r = 0; r < t.cases.size(); ++r) {
      if (covers(beta, t.cases[r])) cov[beta] |= std::uint64_t{1} << r;
    }
  }
  const std::uint64_t full = t.cases.size() == 64
                                 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << t.cases.size()) - 1;
  // Is there a k-subset of {from..last} whose union with `acc` is full?
  const auto fits = [&](auto&& self, int k, ParityFunc from,
                        std::uint64_t acc) -> bool {
    if (acc == full) return true;
    if (k == 0) return false;
    for (ParityFunc b = from; b <= last; ++b) {
      if (self(self, k - 1, b + 1, acc | cov[b])) return true;
    }
    return false;
  };
  std::size_t q = 1;
  while (!fits(fits, static_cast<int>(q), 1, 0)) ++q;
  return q;
}

TEST(KernelScalar, PruneRedundantIdentical) {
  std::mt19937_64 rng(6);
  const DetectabilityTable t = random_table(rng, 14, 600, 3);
  for (int trial = 0; trial < 10; ++trial) {
    // Deliberately redundant set: a full cover plus duplicates and extras.
    std::vector<ParityFunc> betas = greedy_cover(t);
    betas.push_back(betas.front());
    for (int i = 0; i < 4; ++i) betas.push_back(random_beta(rng, 14));
    std::shuffle(betas.begin(), betas.end(), rng);
    if (!covers_all(betas, t)) continue;

    const std::vector<ParityFunc> want = prune_reference(betas, t);
    on_every_backend([&](SimdLevel level, int threads) {
      EXPECT_EQ(prune_redundant(betas, t), want)
          << to_string(level) << " threads=" << threads;
    });
  }
}

TEST(KernelScalar, GreedyIdentical) {
  // Pinned: the functions the former per-case greedy path selected.
  const std::vector<ParityFunc> kMasks[] = {
      {0x5, 0x3},
      {0xa23, 0x16, 0x1},
      {0x1df651809, 0x1000081, 0x805},
      {0x1},
      {0x8100002, 0x210000005, 0x401},
  };
  std::mt19937_64 rng(7);
  for (std::size_t i = 0; i < std::size(kShapes); ++i) {
    const Shape& s = kShapes[i];
    const DetectabilityTable t = random_table(rng, s.n, s.m, s.max_len);
    on_every_backend([&](SimdLevel level, int threads) {
      const auto sol = greedy_cover(t);
      EXPECT_EQ(sol, kMasks[i]) << to_string(level) << " threads=" << threads
                                << " n=" << s.n << " m=" << s.m;
      EXPECT_TRUE(covers_all(sol, t));
    });
  }
}

TEST(KernelScalar, ExactIdentical) {
  // Pinned: the covers the former per-case candidate enumeration found.
  const std::vector<ParityFunc> kMasks[] = {
      {0xd, 0x30}, {0x1, 0xa, 0x16}, {0x4, 0x19}, {0x8, 0x10}};
  std::mt19937_64 rng(8);
  for (int trial = 0; trial < 4; ++trial) {
    const DetectabilityTable t = random_table(rng, 6, 40, 2);
    const std::size_t min_q = brute_force_min_q(t);
    on_every_backend([&](SimdLevel level, int threads) {
      const auto sol = exact_min_cover(t);
      ASSERT_TRUE(sol.has_value()) << to_string(level);
      EXPECT_EQ(*sol, kMasks[trial])
          << to_string(level) << " threads=" << threads;
      EXPECT_EQ(sol->size(), min_q) << "trial " << trial;
      EXPECT_TRUE(covers_all(*sol, t));
    });
  }
}

TEST(KernelScalar, Algorithm1Identical) {
  // Pinned: the cover the former per-case solver paths selected.
  const std::vector<ParityFunc> kMasks = {0x43,    0x23,    0x1c466,
                                          0xa00,   0x1800c, 0x1};
  std::mt19937_64 rng(9);
  const DetectabilityTable t = random_table(rng, 18, 2000, 3);
  on_every_backend([&](SimdLevel level, int threads) {
    Algorithm1Options opts;
    opts.threads = threads;
    const auto sol = minimize_parity_functions(t, opts);
    EXPECT_EQ(sol, kMasks) << to_string(level) << " threads=" << threads;
    EXPECT_TRUE(covers_all(sol, t));
  });
}

TEST(Determinism, IdenticalAcrossThreadCounts) {
  std::mt19937_64 rng(10);
  const DetectabilityTable t = random_table(rng, 18, 3000, 3);
  std::vector<ParityFunc> per_env[2];
  const char* counts[2] = {"1", "4"};
  for (int i = 0; i < 2; ++i) {
    setenv("CED_THREADS", counts[i], 1);
    Algorithm1Options opts;
    opts.threads = 0;  // resolve from CED_THREADS
    per_env[i] = minimize_parity_functions(t, opts);
  }
  unsetenv("CED_THREADS");
  EXPECT_EQ(per_env[0], per_env[1]);
  EXPECT_TRUE(covers_all(per_env[0], t));
}

}  // namespace
}  // namespace ced::core
