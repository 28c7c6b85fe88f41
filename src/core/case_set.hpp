#pragma once

// The erroneous-case set of extraction (core/extract.cpp) and condensation
// (core/coverkernel.cpp). Private to core: no public header includes it.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "core/erroneous_case.hpp"

namespace ced::core {

/// A set of canonical erroneous cases. Each case is stored once, densely
/// and in insertion order, in a vector; a power-of-two open-addressing
/// array of row numbers finds it (slot value row + 1, 0 = empty, load at
/// most 1/2, linear probing on the hash's top bits). The slots hold row
/// numbers, not cases, so the index costs 8-16 bytes per case.
///
/// `Row` bounds the set at max(Row) cases: an insert beyond that throws
/// std::length_error rather than wrap. Extraction's case valves keep sets
/// far below the 2^32 - 1 of CaseSet.
template <typename Row>
class BasicCaseSet {
 public:
  static constexpr std::size_t kMaxSize = std::numeric_limits<Row>::max();

  BasicCaseSet() = default;

  /// A set of `cases`, keeping the first of any repeats.
  explicit BasicCaseSet(std::vector<ErroneousCase> cases)
      : cases_(std::move(cases)) {
    check_size(cases_.size());
    reindex(slots_for(cases_.size()));
  }

  std::size_t size() const { return cases_.size(); }

  /// The cases in insertion order.
  const std::vector<ErroneousCase>& cases() const { return cases_; }

  /// Moves the cases out (in insertion order) and leaves the set empty.
  std::vector<ErroneousCase> release() {
    std::vector<ErroneousCase> out = std::move(cases_);
    *this = BasicCaseSet();
    return out;
  }

  /// Makes room for `n` cases: up to that size, inserts neither reallocate
  /// the cases nor rebuild the index.
  void reserve(std::size_t n) {
    check_size(n);
    cases_.reserve(n);
    if (slots_for(n) > slots_.size()) reindex(slots_for(n));
  }

  bool contains(const ErroneousCase& ec) const {
    return slots_[slot_of(ec)] != 0;
  }

  /// Adds `ec`; false if it was already there.
  bool insert(const ErroneousCase& ec) {
    const std::size_t i = slot_of(ec);
    if (slots_[i] != 0) return false;
    check_size(cases_.size() + 1);
    cases_.push_back(ec);
    slots_[i] = static_cast<Row>(cases_.size());
    if (2 * cases_.size() > slots_.size()) reindex(2 * slots_.size());
    return true;
  }

  /// Keeps the cases whose flag in `keep` (one per case, in order) is set,
  /// in insertion order, and rebuilds the index.
  void retain(const std::vector<char>& keep) {
    filter(keep);
    reindex(slots_.size());
  }

  /// Moves out the cases whose flag in `keep` is set, in insertion order,
  /// and leaves the set empty: retain() and release() without building an
  /// index for the survivors.
  std::vector<ErroneousCase> release(const std::vector<char>& keep) {
    filter(keep);
    return release();
  }

  /// Replaces every case by fn(case), keeps the first of any repeats this
  /// makes, in insertion order, and rebuilds the index.
  template <typename Fn>
  void transform(Fn fn) {
    for (ErroneousCase& ec : cases_) ec = fn(ec);
    reindex(slots_.size());
  }

 private:
  static constexpr std::size_t kMinSlots = 16;

  static void check_size(std::size_t n) {
    if (n > kMaxSize) {
      throw std::length_error("CaseSet: more cases than its row index holds");
    }
  }

  /// Smallest power-of-two slot count that keeps n cases at load <= 1/2.
  static std::size_t slots_for(std::size_t n) {
    return std::max(kMinSlots, std::bit_ceil(2 * n));
  }

  static std::uint64_t hash(const ErroneousCase& ec) {
    const int len = ec.length();
    std::uint64_t h = 0x9e3779b97f4a7c15ull * (len + 1);
    for (int k = 0; k < len; ++k) {
      h ^= ec.diff[static_cast<std::size_t>(k)] + 0x9e3779b97f4a7c15ull +
           (h << 6) + (h >> 2);
      h *= 0xff51afd7ed558ccdull;
    }
    return h;
  }

  /// The slot holding `ec`, or the empty slot where it would go.
  std::size_t slot_of(const ErroneousCase& ec) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash(ec) >> shift_;; i = (i + 1) & mask) {
      const Row r = slots_[i];
      if (r == 0 || cases_[r - 1u] == ec) return i;
    }
  }

  /// Drops the rows whose flag in `keep` is clear, in order; leaves the
  /// index stale.
  void filter(const std::vector<char>& keep) {
    std::size_t w = 0;
    for (std::size_t r = 0; r < cases_.size(); ++r) {
      if (keep[r]) cases_[w++] = cases_[r];
    }
    cases_.resize(w);
  }

  /// Rebuilds an index of `num_slots` slots over the rows, compacting
  /// away every repeat of an earlier row.
  void reindex(std::size_t num_slots) {
    slots_.assign(num_slots, 0);
    shift_ = 64 - std::countr_zero(num_slots);
    std::size_t w = 0;
    for (std::size_t r = 0; r < cases_.size(); ++r) {
      const std::size_t i = slot_of(cases_[r]);
      if (slots_[i] != 0) continue;
      cases_[w] = cases_[r];
      slots_[i] = static_cast<Row>(++w);
    }
    cases_.resize(w);
  }

  std::vector<ErroneousCase> cases_;
  std::vector<Row> slots_ = std::vector<Row>(kMinSlots, 0);
  int shift_ = 64 - std::countr_zero(kMinSlots);
};

using CaseSet = BasicCaseSet<std::uint32_t>;

/// True if some nonempty proper subset of ec's word set is a case of
/// `set`: that case implies ec (odd overlap with the subset's word is odd
/// overlap with ec's), making ec a redundant row. Counts each lookup in
/// `probes`.
inline bool dominated(const ErroneousCase& ec, const CaseSet& set,
                      std::uint64_t& probes) {
  const int len = ec.length();
  const unsigned full = (1u << len) - 1;
  for (unsigned mask = 1; mask < full; ++mask) {
    // A subset of a sorted distinct sequence is sorted and distinct, hence
    // canonical; its words are packed and the rest stay zero.
    ErroneousCase sub;
    int m = 0;
    for (int k = 0; k < len; ++k) {
      if ((mask >> k) & 1) {
        sub.diff[static_cast<std::size_t>(m++)] =
            ec.diff[static_cast<std::size_t>(k)];
      }
    }
    ++probes;
    if (set.contains(sub)) return true;
  }
  return false;
}

/// Rows per parallel_for index of minimal_rows(), and the set size below
/// which it runs inline: starting the workers costs about as much as
/// checking a thousand rows.
inline constexpr std::size_t kCompactChunk = std::size_t{1} << 12;
inline constexpr std::size_t kInlineCompact = std::size_t{1} << 14;

/// One flag per case of `set`, in order: 1 if no nonempty proper subset of
/// the case is in the set. The set does not change while it is checked, so
/// fixed chunks of rows are checked on `threads` workers (inline below
/// kInlineCompact cases), each counting its own lookups; the flags and the
/// summed `probes` are the same at every thread count.
inline std::vector<char> minimal_rows(const CaseSet& set,
                                      std::uint64_t& probes, int threads) {
  const std::vector<ErroneousCase>& cases = set.cases();
  std::vector<char> keep(cases.size());
  const std::size_t chunks = (cases.size() + kCompactChunk - 1) / kCompactChunk;
  std::vector<std::uint64_t> chunk_probes(chunks, 0);
  parallel_for(cases.size() < kInlineCompact ? 1 : threads, chunks,
               [&](std::size_t c) {
                 const std::size_t end =
                     std::min(cases.size(), (c + 1) * kCompactChunk);
                 std::uint64_t n = 0;  // a local: the counters share lines
                 for (std::size_t r = c * kCompactChunk; r < end; ++r) {
                   keep[r] = !dominated(cases[r], set, n);
                 }
                 chunk_probes[c] = n;
               });
  for (const std::uint64_t n : chunk_probes) probes += n;
  return keep;
}

/// Keeps only the subset-minimal cases, in insertion order; returns how
/// many it removed. Every case is checked against the whole set before any
/// is removed (a dominated case always keeps a subset-minimal dominator),
/// so the result does not depend on the order of the cases, nor on
/// `threads` (minimal_rows).
inline std::size_t compact(CaseSet& set, std::uint64_t& probes,
                           int threads = 1) {
  const std::size_t before = set.size();
  set.retain(minimal_rows(set, probes, threads));
  return before - set.size();
}

/// The order of a table's cases: by length, then by words. A closure, not
/// a function, so that std::sort and std::merge inline it rather than call
/// it through a pointer.
inline constexpr auto case_less = [](const ErroneousCase& a,
                                     const ErroneousCase& b) {
  const int la = a.length();
  const int lb = b.length();
  if (la != lb) return la < lb;
  return a.diff < b.diff;
};

/// Cases per sorted run, and per merged piece, of sort_cases().
inline constexpr std::size_t kSortChunk = std::size_t{1} << 14;

/// How many of the first k cases of the merge of the sorted distinct runs
/// a[0, na) and b[0, nb) come from a (the merge path's split at k).
inline std::size_t merge_split(const ErroneousCase* a, std::size_t na,
                               const ErroneousCase* b, std::size_t nb,
                               std::size_t k) {
  std::size_t lo = k > nb ? k - nb : 0;
  std::size_t hi = std::min(k, na);
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (case_less(a[mid], b[k - 1 - mid])) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// `cases`, which must be distinct, sorted by case_less into a vector of
/// exactly their number. Fixed chunks are sorted on `threads` workers, then
/// merged pairwise, round by round, between `cases` and the result, so the
/// second buffer is the one a shrink_to_fit would allocate. Each round
/// splits its output into fixed chunks that find their inputs by the merge
/// path and merge in parallel. Distinct cases have one sorted order: the
/// result is std::sort's.
inline std::vector<ErroneousCase> sort_cases(std::vector<ErroneousCase> cases,
                                             int threads) {
  const std::size_t n = cases.size();
  std::vector<ErroneousCase> out(n);
  std::size_t rounds = 0;
  for (std::size_t width = kSortChunk; width < n; width *= 2) ++rounds;
  // Every round flips the buffers; start in the one that makes `out` the
  // last round's target.
  ErroneousCase* src = cases.data();
  ErroneousCase* dst = out.data();
  if (rounds % 2 == 0) std::swap(src, dst);
  const std::size_t chunks = (n + kSortChunk - 1) / kSortChunk;
  parallel_for(threads, chunks, [&](std::size_t c) {
    const std::size_t begin = c * kSortChunk;
    const std::size_t end = std::min(n, begin + kSortChunk);
    if (src != cases.data()) {
      std::copy(cases.data() + begin, cases.data() + end, src + begin);
    }
    std::sort(src + begin, src + end, case_less);
  });
  for (std::size_t width = kSortChunk; width < n; width *= 2) {
    // A pair of runs spans whole chunks: width is a multiple of the chunk.
    parallel_for(threads, chunks, [&](std::size_t c) {
      const std::size_t first = c * kSortChunk;
      const std::size_t begin = first - first % (2 * width);
      const std::size_t mid = std::min(n, begin + width);
      const std::size_t end = std::min(n, begin + 2 * width);
      const std::size_t k0 = first - begin;
      const std::size_t k1 = std::min(end, first + kSortChunk) - begin;
      const ErroneousCase* a = src + begin;
      const ErroneousCase* b = src + mid;
      const std::size_t i0 = merge_split(a, mid - begin, b, end - mid, k0);
      const std::size_t i1 = merge_split(a, mid - begin, b, end - mid, k1);
      std::merge(a + i0, a + i1, b + (k0 - i0), b + (k1 - i1), dst + first,
                 case_less);
    });
    std::swap(src, dst);
  }
  return out;
}

}  // namespace ced::core
