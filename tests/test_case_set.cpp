// The dense erroneous-case set (core/case_set.hpp) against brute force:
// inserts across index doublings and repeats, subset dominance, in-place
// compaction (serial and parallel) and strengthening, the parallel sort,
// and the row-index bound.

#include "core/case_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/rng.hpp"

namespace ced::core {
namespace {

/// `n` distinct random nonzero words.
std::vector<std::uint64_t> alphabet(Rng& rng, std::size_t n) {
  std::vector<std::uint64_t> words;
  while (words.size() < n) {
    const std::uint64_t w = rng.next();
    if (w != 0 && std::find(words.begin(), words.end(), w) == words.end()) {
      words.push_back(w);
    }
  }
  return words;
}

/// A random canonical case of `len` distinct words drawn from `words`.
ErroneousCase case_of_length(Rng& rng, const std::vector<std::uint64_t>& words,
                             std::size_t len) {
  std::vector<std::uint64_t> picked;
  while (picked.size() < len) {
    const std::uint64_t w = words[rng.next() % words.size()];
    if (std::find(picked.begin(), picked.end(), w) == picked.end()) {
      picked.push_back(w);
    }
  }
  std::sort(picked.begin(), picked.end());
  ErroneousCase ec;
  std::copy(picked.begin(), picked.end(), ec.diff.begin());
  return ec;
}

/// A random canonical case of 1..kMaxLatency distinct words drawn from
/// `words` (a small alphabet makes repeats and subsets common).
ErroneousCase random_case(Rng& rng, const std::vector<std::uint64_t>& words) {
  return case_of_length(rng, words, 1 + rng.next() % kMaxLatency);
}

/// True if a's word set is a proper subset of b's.
bool proper_subset(const ErroneousCase& a, const ErroneousCase& b) {
  return a.length() < b.length() &&
         std::includes(b.diff.begin(), b.diff.begin() + b.length(),
                       a.diff.begin(), a.diff.begin() + a.length());
}

bool member(const std::vector<ErroneousCase>& cases, const ErroneousCase& ec) {
  return std::find(cases.begin(), cases.end(), ec) != cases.end();
}

/// Inserts `n` random cases into `set`; returns the first occurrences in
/// insertion order.
std::vector<ErroneousCase> fill(CaseSet& set, Rng& rng,
                                const std::vector<std::uint64_t>& words,
                                int n) {
  std::vector<ErroneousCase> firsts;
  for (int i = 0; i < n; ++i) {
    const ErroneousCase ec = random_case(rng, words);
    const bool fresh = !member(firsts, ec);
    EXPECT_EQ(set.insert(ec), fresh);
    if (fresh) firsts.push_back(ec);
  }
  return firsts;
}

TEST(CaseSet, InsertsMatchBruteForceAcrossIndexDoublings) {
  Rng rng(1);
  const auto words = alphabet(rng, 24);
  CaseSet set;
  const std::vector<ErroneousCase> firsts = fill(set, rng, words, 5000);
  // From 16 slots, 2048 cases take at least eight doublings of the index.
  ASSERT_GT(firsts.size(), 2048u);
  ASSERT_LT(firsts.size(), 5000u) << "no repeats drawn";
  EXPECT_EQ(set.cases(), firsts);
  for (const ErroneousCase& ec : firsts) EXPECT_TRUE(set.contains(ec));
  for (int i = 0; i < 2000; ++i) {
    const ErroneousCase ec = random_case(rng, words);
    EXPECT_EQ(set.contains(ec), member(firsts, ec));
  }
  // A vector with repeats builds the same set; reserve keeps the rows.
  std::vector<ErroneousCase> twice = firsts;
  twice.insert(twice.end(), firsts.begin(), firsts.end());
  CaseSet built(twice);
  built.reserve(4 * firsts.size());
  EXPECT_EQ(built.cases(), firsts);
  for (const ErroneousCase& ec : firsts) EXPECT_FALSE(built.insert(ec));
  EXPECT_EQ(built.release(), firsts);
  EXPECT_EQ(built.size(), 0u);
  EXPECT_FALSE(built.contains(firsts.front()));
}

TEST(CaseSet, DominatedMatchesBruteForce) {
  Rng rng(2);
  const auto words = alphabet(rng, 12);
  CaseSet set;
  const std::vector<ErroneousCase> members = fill(set, rng, words, 300);
  std::vector<int> seen(kMaxLatency + 1, 0);
  for (int i = 0; i < 3000; ++i) {
    const ErroneousCase ec = random_case(rng, words);
    const bool brute = std::any_of(
        members.begin(), members.end(),
        [&](const ErroneousCase& m) { return proper_subset(m, ec); });
    std::uint64_t probes = 0;
    EXPECT_EQ(dominated(ec, set, probes), brute);
    // At most one lookup per nonempty proper subset.
    EXPECT_LE(probes, (1u << ec.length()) - 2);
    seen[static_cast<std::size_t>(ec.length())] += brute ? 1 : 0;
  }
  // Every length from 2 up was dominated at least once (a single word has
  // no nonempty proper subset).
  EXPECT_EQ(seen[1], 0);
  for (int len = 2; len <= kMaxLatency; ++len) EXPECT_GT(seen[len], 0);
}

TEST(CaseSet, CompactionKeepsInsertionOrderAndYieldsTheAntichain) {
  Rng rng(3);
  const auto words = alphabet(rng, 16);
  CaseSet set;
  const std::vector<ErroneousCase> members = fill(set, rng, words, 3000);
  std::vector<ErroneousCase> minimal;
  for (const ErroneousCase& ec : members) {
    if (std::none_of(
            members.begin(), members.end(),
            [&](const ErroneousCase& m) { return proper_subset(m, ec); })) {
      minimal.push_back(ec);
    }
  }
  ASSERT_LT(minimal.size(), members.size()) << "nothing to compact";
  std::uint64_t probes = 0;
  EXPECT_EQ(compact(set, probes), members.size() - minimal.size());
  EXPECT_GT(probes, 0u);
  EXPECT_EQ(set.cases(), minimal);
  // The rebuilt index finds exactly the survivors and keeps accepting.
  for (const ErroneousCase& ec : members) {
    EXPECT_EQ(set.contains(ec), member(minimal, ec));
  }
  EXPECT_EQ(compact(set, probes), 0u);
  const ErroneousCase removed = *std::find_if(
      members.begin(), members.end(),
      [&](const ErroneousCase& ec) { return !member(minimal, ec); });
  EXPECT_TRUE(set.insert(removed));
  EXPECT_EQ(set.cases().back(), removed);
}

TEST(CaseSet, ParallelCompactionMatchesSerial) {
  // Compaction checks fixed chunks of rows on parallel workers. At every
  // thread count the survivors, their order and the probe count must be
  // those of a plain row-by-row dominated() pass over the same set. Rare
  // pairs and commoner triples dominate part of the quadruples.
  Rng rng(5);
  const auto words = alphabet(rng, 200);
  CaseSet set;
  for (const auto& [len, n] : {std::pair{2, 3000}, {3, 40000}, {4, 80000}}) {
    for (int i = 0; i < n; ++i) {
      set.insert(case_of_length(rng, words, static_cast<std::size_t>(len)));
    }
  }
  ASSERT_GT(set.size(), 100000u);
  ASSERT_GT(set.size(), kInlineCompact);
  ASSERT_NE(set.size() % kCompactChunk, 0u) << "no partial last chunk";
  std::vector<ErroneousCase> minimal;
  std::uint64_t serial_probes = 0;
  for (const ErroneousCase& ec : set.cases()) {
    if (!dominated(ec, set, serial_probes)) minimal.push_back(ec);
  }
  ASSERT_GT(minimal.size(), set.size() / 4) << "too few survivors";
  ASSERT_LT(minimal.size(), 3 * set.size() / 4) << "too few removals";
  for (const int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(threads);
    CaseSet copy = set;
    std::uint64_t probes = 0;
    EXPECT_EQ(compact(copy, probes, threads), set.size() - minimal.size());
    EXPECT_EQ(copy.cases(), minimal);
    EXPECT_EQ(probes, serial_probes);
    for (const ErroneousCase& ec : minimal) ASSERT_TRUE(copy.contains(ec));
  }
}

TEST(CaseSet, ParallelSortMatchesStdSort) {
  // sort_cases sorts fixed chunks on parallel workers and merges them
  // pairwise between two buffers. With one chunk, with an odd and an even
  // number of merge rounds, and with a partial last chunk, at every thread
  // count, it must give std::sort's order in a vector of exactly the cases.
  Rng rng(6);
  const auto words = alphabet(rng, 200);
  CaseSet set;  // distinct cases
  while (set.size() < 5 * kSortChunk + 7) set.insert(random_case(rng, words));
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, kSortChunk, kSortChunk + 1,
        2 * kSortChunk + 3, 4 * kSortChunk, 5 * kSortChunk + 7}) {
    SCOPED_TRACE(n);
    const std::vector<ErroneousCase> cases(
        set.cases().begin(),
        set.cases().begin() + static_cast<std::ptrdiff_t>(n));
    std::vector<ErroneousCase> expected = cases;
    std::sort(expected.begin(), expected.end(), case_less);
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE(threads);
      const std::vector<ErroneousCase> sorted = sort_cases(cases, threads);
      EXPECT_EQ(sorted, expected);
      EXPECT_EQ(sorted.capacity(), n);
    }
  }
}

TEST(CaseSet, StrengtheningInPlaceDropsRepeatsInOrder) {
  Rng rng(4);
  const auto words = alphabet(rng, 10);
  CaseSet set;
  const std::vector<ErroneousCase> members = fill(set, rng, words, 2000);
  const auto first_two = [](const ErroneousCase& ec) {
    ErroneousCase s;
    std::copy_n(ec.diff.begin(), std::min(ec.length(), 2), s.diff.begin());
    return s;
  };
  std::vector<ErroneousCase> expected;
  for (const ErroneousCase& ec : members) {
    if (!member(expected, first_two(ec))) expected.push_back(first_two(ec));
  }
  ASSERT_LT(expected.size(), members.size()) << "no repeats made";
  set.transform(first_two);
  EXPECT_EQ(set.cases(), expected);
  for (const ErroneousCase& ec : expected) EXPECT_TRUE(set.contains(ec));
  for (const ErroneousCase& ec : members) {
    if (ec.length() > 2) {
      EXPECT_FALSE(set.contains(ec));
    }
  }
}

TEST(CaseSet, RowIndexOverflowThrowsInsteadOfWrapping) {
  // An 8-bit row index holds 255 cases; the 256th must not wrap to row 0.
  using TinySet = BasicCaseSet<std::uint8_t>;
  const auto single = [](std::uint64_t w) {
    ErroneousCase ec;
    ec.diff[0] = w;
    return ec;
  };
  TinySet set;
  std::vector<ErroneousCase> all;
  for (std::uint64_t w = 1; w <= TinySet::kMaxSize; ++w) {
    EXPECT_TRUE(set.insert(single(w)));
    all.push_back(single(w));
  }
  EXPECT_FALSE(set.insert(single(7)));  // a repeat is still answered
  EXPECT_THROW(set.insert(single(TinySet::kMaxSize + 1)), std::length_error);
  EXPECT_EQ(set.cases(), all);
  for (const ErroneousCase& ec : all) EXPECT_TRUE(set.contains(ec));
  all.push_back(single(TinySet::kMaxSize + 1));
  EXPECT_THROW(TinySet{all}, std::length_error);
}

}  // namespace
}  // namespace ced::core
