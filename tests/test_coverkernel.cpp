// Bit-sliced cover kernel (core/coverkernel.hpp): randomized equivalence
// against the per-case core::covers oracle, appended kernels against fresh
// ones, condensation soundness, the subset-minimality of extracted tables
// that lets the solvers skip condensation, and result identity for every
// solver that routes through the kernel — on the dispatched SIMD backend
// and the forced word-loop fallback, at 1 and 4 threads, against
// references kept here (a back-to-front prune loop, a brute-force minimum
// q) and masks pinned from the former per-case solver paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <random>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "benchdata/suite.hpp"
#include "common/cpu.hpp"
#include "common/exec.hpp"
#include "core/algorithm1.hpp"
#include "core/coverkernel.hpp"
#include "core/extract.hpp"
#include "core/greedy.hpp"
#include "core/parity.hpp"
#include "core/pipeline.hpp"
#include "fsm/synthesize.hpp"
#include "oracle/covers.hpp"
#include "oracle/exact.hpp"
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
      fsm::synthesize_fsm(f, fsm::EncodingKind::kBinary);
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
    // Random betas, a zero beta, and one with every bit at or above n set
    // (the kernel masks those off).
    std::vector<ParityFunc> set;
    for (int i = 0; i < 16; ++i) set.push_back(random_beta(rng, s.n));
    set.push_back(0);
    set.push_back(random_beta(rng, s.n) |
                  (s.n >= 64 ? 0 : ~((std::uint64_t{1} << s.n) - 1)));

    for (const SimdLevel level : {detected_simd_level(), SimdLevel::kNone}) {
      SCOPED_TRACE(std::string(to_string(level)) + " n=" +
                   std::to_string(s.n) + " m=" + std::to_string(s.m));
      const ScopedSimdLevel cap(level);
      const CoverKernel kernel(t);
      ASSERT_EQ(kernel.num_rows(), t.cases.size());
      ASSERT_EQ(kernel.num_bits(), s.n);

      std::vector<std::size_t> counts(set.size());
      kernel.counts(set, counts);
      std::vector<std::uint64_t> bitmaps(set.size() * kernel.num_words());
      kernel.bitmaps(set, bitmaps.data());
      for (std::size_t i = 0; i < set.size(); ++i) {
        const ParityFunc beta = set[i];
        EXPECT_EQ(counts[i], scalar_count(beta, t)) << "beta=" << beta;
        std::size_t one = 0;
        kernel.counts({&beta, 1}, {&one, 1});
        EXPECT_EQ(one, counts[i]) << "beta=" << beta;
        const std::uint64_t* bitmap = bitmaps.data() + i * kernel.num_words();
        for (std::size_t r = 0; r < t.cases.size(); ++r) {
          EXPECT_EQ((bitmap[r >> 6] >> (r & 63)) & 1,
                    covers(beta, t.cases[r]) ? 1u : 0u);
        }
        // Padding bits beyond num_rows stay zero.
        if (t.cases.size() % 64 != 0) {
          EXPECT_EQ(bitmap[kernel.num_words() - 1] >> (t.cases.size() % 64),
                    0u);
        }
      }
      // Set queries against the per-case oracle, for the set and for the
      // empty set (which covers nothing).
      for (const std::span<const ParityFunc> betas :
           {std::span<const ParityFunc>(set), std::span<const ParityFunc>()}) {
        const std::vector<std::uint32_t> want = uncovered_cases(betas, t);
        EXPECT_EQ(kernel.covers_all(betas), covers_all(betas, t));
        EXPECT_EQ(kernel.uncovered(betas), want);
        EXPECT_EQ(kernel.uncovered_count(betas), want.size());
        std::vector<std::uint64_t> acc(kernel.num_words(), 0);
        kernel.or_covered(betas, acc.data());
        EXPECT_EQ(kernel.count(acc.data()), t.cases.size() - want.size());
      }
    }
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
  // A subset kernel with no rows: every query answers for zero rows.
  const std::vector<ParityFunc> set = {random_beta(rng, 20), 0};
  for (const SimdLevel level : {detected_simd_level(), SimdLevel::kNone}) {
    const ScopedSimdLevel cap(level);
    const CoverKernel empty(t, std::vector<std::uint32_t>{});
    ASSERT_EQ(empty.num_rows(), 0u) << to_string(level);
    ASSERT_EQ(empty.num_words(), 0u) << to_string(level);
    std::vector<std::size_t> counts(set.size(), 7);
    empty.counts(set, counts);
    EXPECT_EQ(counts, std::vector<std::size_t>(set.size(), 0))
        << to_string(level);
    empty.bitmaps(set, nullptr);
    empty.or_covered(set, nullptr);
    EXPECT_TRUE(empty.covers_all(set)) << to_string(level);
    EXPECT_TRUE(empty.covers_all({})) << to_string(level);
    EXPECT_EQ(empty.uncovered_count(set), 0u) << to_string(level);
    EXPECT_TRUE(empty.uncovered(set).empty()) << to_string(level);
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
    return std::set<std::uint64_t>(ec.diff.begin(),
                                   ec.diff.begin() + ec.length());
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

TEST(Condense, ExtractedTablesAreAlreadySubsetMinimal) {
  // The solvers take extracted tables as they are (DetectabilityTable::
  // cases): condensing any of them must remove nothing, on the no-store
  // partition (one shard per thread) and on the store's 16 shards.
  for (const std::string& name : benchdata::small_suite_names()) {
    const Design d = derive_design(benchdata::suite_fsm(name), {});
    for (const DiffSemantics sem :
         {DiffSemantics::kImplementable, DiffSemantics::kMachineLevel}) {
      ExtractOptions opts;
      opts.latency = 3;
      opts.semantics = sem;
      opts.threads = 4;
      const auto multi = extract_cases_multi(d.circuit, d.faults, opts);
      const auto sharded = extract_cases_sharded(d.circuit, d.faults, opts,
                                                 {.num_shards = 16});
      for (const auto* tables : {&multi, &sharded}) {
        ASSERT_EQ(tables->size(), 3u);
        for (const DetectabilityTable& t : *tables) {
          EXPECT_EQ(condense_table(t).removed, 0u)
              << name << " " << name_of(kSemanticsNames, sem)
              << " p=" << t.latency << " cases=" << t.cases.size();
        }
      }
    }
  }
  // A strengthened table is compacted again after its cases shrink.
  const Design d = derive_design(benchdata::suite_fsm("dk14"), {});
  ExtractOptions opts;
  opts.latency = 3;
  opts.semantics = DiffSemantics::kMachineLevel;
  opts.degrade_threshold = 4000;
  opts.threads = 4;
  const DetectabilityTable t =
      extract_cases_multi(d.circuit, d.faults, opts).back();
  ASSERT_TRUE(t.strengthened);
  EXPECT_EQ(condense_table(t).removed, 0u);
}

TEST(Condense, SolverReportsTheRowsItSolved) {
  for (const char* name : {"s27", "tav", "donfile"}) {
    const DetectabilityTable t = suite_table(name, 2);
    PipelineOptions opts;
    opts.exec.threads = 1;
    Algorithm1Stats stats;
    ResilienceReport resilience;
    const auto sol = select_parities_resilient(t, opts, Deadline{}, &stats,
                                               {}, resilience);
    EXPECT_TRUE(covers_all(sol, t)) << name;
    EXPECT_EQ(stats.condensed_cases, t.cases.size()) << name;
  }
}

TEST(Condense, TableWithDominatedRowsStillGetsAFullCover) {
  // Nothing condenses a table handed to the cascade; one with dominated
  // rows costs more rows to solve, never a row uncovered.
  std::mt19937_64 rng(11);
  for (const int n : {3, 5, 16}) {
    const DetectabilityTable t = random_table(rng, n, 500, kMaxLatency);
    ASSERT_GT(condense_table(t).removed, 0u) << "n=" << n;
    PipelineOptions opts;
    opts.exec.threads = 1;
    Algorithm1Stats stats;
    ResilienceReport resilience;
    const auto sol = select_parities_resilient(t, opts, Deadline{}, &stats,
                                               {}, resilience);
    EXPECT_TRUE(covers_all(sol, t)) << "n=" << n;
    EXPECT_EQ(stats.condensed_cases, t.cases.size()) << "n=" << n;
    EXPECT_TRUE(resilience.status.ok()) << "n=" << n;
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

/// Every observable of `got` (built by appends) equals that of `want` (one
/// fresh kernel over the same rows): shape, each column's words, row
/// back-map, and the set and cursor queries.
void expect_same_kernel(const CoverKernel& got, const CoverKernel& want,
                        std::mt19937_64& rng) {
  ASSERT_EQ(got.num_rows(), want.num_rows());
  ASSERT_EQ(got.num_words(), want.num_words());
  ASSERT_EQ(got.num_steps(), want.num_steps());
  ASSERT_EQ(got.num_bits(), want.num_bits());
  ASSERT_GE(got.stride(), got.num_words());
  for (int k = 0; k < want.num_steps(); ++k) {
    for (int j = 0; j < want.num_bits(); ++j) {
      const auto a = got.column(k, j);
      const auto b = want.column(k, j);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "column (" << k << ", " << j << ")";
    }
  }
  for (std::uint32_t r = 0; r < want.num_rows(); ++r) {
    ASSERT_EQ(got.global_row(r), want.global_row(r));
  }
  const int n = want.num_bits();
  std::vector<ParityFunc> set;
  for (int i = 0; i < 6; ++i) set.push_back(random_beta(rng, n));
  EXPECT_EQ(got.uncovered(set), want.uncovered(set));
  EXPECT_EQ(got.uncovered_count(set), want.uncovered_count(set));

  std::vector<std::size_t> gc(set.size()), wc(set.size());
  got.counts(set, gc);
  want.counts(set, wc);
  EXPECT_EQ(gc, wc);
  std::vector<std::uint64_t> gm(set.size() * got.num_words());
  std::vector<std::uint64_t> wm(set.size() * want.num_words());
  got.bitmaps(set, gm.data());
  want.bitmaps(set, wm.data());
  EXPECT_EQ(gm, wm);
  std::vector<std::uint64_t> ga(got.num_words(), 0);
  std::vector<std::uint64_t> wa(want.num_words(), 0);
  got.or_covered(set, ga.data());
  want.or_covered(set, wa.data());
  EXPECT_EQ(ga, wa);

  const BetaCursor gcur(got, set[0]), wcur(want, set[0]);
  std::vector<std::size_t> gn(static_cast<std::size_t>(n));
  std::vector<std::size_t> wn(static_cast<std::size_t>(n));
  gcur.neighbor_counts(gn);
  wcur.neighbor_counts(wn);
  EXPECT_EQ(gn, wn);
  std::vector<std::uint64_t> base(want.num_words(), 0);
  want.bitmaps({&set[1], 1}, base.data());
  gcur.neighbor_counts(gn, base.data());
  wcur.neighbor_counts(wn, base.data());
  EXPECT_EQ(gn, wn);
}

TEST(CoverKernel, AppendMatchesFreshKernel) {
  // Each batch list starts from one-step rows, so the kernel's first
  // layout has one step plane and an exact stride: the later batches
  // cross a word boundary, outgrow the stride (more than once), and bring
  // longer cases that add step planes.
  struct Scenario {
    int n;
    std::vector<std::pair<std::size_t, int>> batches;  ///< (rows, max len)
  };
  const Scenario kScenarios[] = {
      {20, {{60, 1}, {0, 1}, {10, 1}, {64, 2}, {3, kMaxLatency}, {200, 3}}},
      {64, {{0, 1}, {63, 1}, {2, 2}, {130, kMaxLatency}, {1, 1}}},
  };
  std::mt19937_64 rng(12);
  for (const Scenario& sc : kScenarios) {
    const DetectabilityTable t = random_table(rng, sc.n, 800, kMaxLatency);
    // Row pools by length, so a batch can hold only short cases.
    std::vector<std::vector<std::uint32_t>> by_len(kMaxLatency + 1);
    for (std::uint32_t r = 0; r < t.cases.size(); ++r) {
      by_len[static_cast<std::size_t>(t.cases[r].length())].push_back(r);
    }
    std::vector<std::vector<std::uint32_t>> batches;
    for (const auto& [count, max_len] : sc.batches) {
      std::vector<std::uint32_t> batch;
      while (batch.size() < count) {
        const auto len = static_cast<std::size_t>(1 + rng() % max_len);
        if (by_len[len].empty()) continue;
        batch.push_back(by_len[len][rng() % by_len[len].size()]);
      }
      batches.push_back(std::move(batch));
    }
    on_every_backend([&](SimdLevel level, int threads) {
      SCOPED_TRACE(std::string(to_string(level)) + " threads=" +
                   std::to_string(threads) + " n=" + std::to_string(sc.n));
      std::vector<std::uint32_t> rows = batches.front();
      CoverKernel kernel(t, rows);
      std::size_t stride = kernel.stride();
      int steps = kernel.num_steps();
      bool outgrew = false, new_step = false;
      for (std::size_t b = 1; b < batches.size(); ++b) {
        kernel.append(t, batches[b]);
        rows.insert(rows.end(), batches[b].begin(), batches[b].end());
        outgrew = outgrew || kernel.stride() > stride;
        new_step = new_step || kernel.num_steps() > steps;
        stride = kernel.stride();
        steps = kernel.num_steps();
        expect_same_kernel(kernel, CoverKernel(t, rows), rng);
      }
      EXPECT_TRUE(outgrew);
      EXPECT_TRUE(new_step);
    });
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
      EXPECT_EQ(prune_redundant(betas, CoverKernel(t)), want)
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
