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
  void retain(const std::vector<bool>& keep) {
    std::size_t w = 0;
    for (std::size_t r = 0; r < cases_.size(); ++r) {
      if (keep[r]) cases_[w++] = cases_[r];
    }
    cases_.resize(w);
    reindex(slots_.size());
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
    std::uint64_t h = 0x9e3779b97f4a7c15ull * (ec.length + 1);
    for (int k = 0; k < ec.length; ++k) {
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
  const unsigned full = (1u << ec.length) - 1;
  for (unsigned mask = 1; mask < full; ++mask) {
    // A subset of a sorted distinct sequence is sorted and distinct, hence
    // canonical.
    ErroneousCase sub;
    int m = 0;
    for (int k = 0; k < ec.length; ++k) {
      if ((mask >> k) & 1) {
        sub.diff[static_cast<std::size_t>(m++)] =
            ec.diff[static_cast<std::size_t>(k)];
      }
    }
    sub.length = static_cast<std::uint8_t>(m);
    ++probes;
    if (set.contains(sub)) return true;
  }
  return false;
}

/// Keeps only the subset-minimal cases, in insertion order; returns how
/// many it removed. Every case is checked against the whole set before any
/// is removed (a dominated case always keeps a subset-minimal dominator),
/// so the result does not depend on the order of the cases.
inline std::size_t compact(CaseSet& set, std::uint64_t& probes) {
  const std::vector<ErroneousCase>& cases = set.cases();
  std::vector<bool> keep(cases.size());
  for (std::size_t r = 0; r < cases.size(); ++r) {
    keep[r] = !dominated(cases[r], set, probes);
  }
  const std::size_t before = set.size();
  set.retain(keep);
  return before - set.size();
}

}  // namespace ced::core
