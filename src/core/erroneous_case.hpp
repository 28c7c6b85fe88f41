#pragma once

#include <array>
#include <cstdint>
#include <cstddef>

namespace ced::core {

/// Maximum supported detection-latency bound `p`. The paper evaluates
/// p in {1,2,3}; loop truncation (§2) makes larger bounds useless for the
/// benchmark machines. Keeping the bound small keeps ErroneousCase compact,
/// which matters: large machines produce millions of cases.
inline constexpr int kMaxLatency = 4;

/// One Erroneous Case EC(A, c, f) (§3.1): for one fault, one activation
/// state and one input path of length <= p, the sets of next-state/output
/// bits (bit j = b_{j+1}) in which the faulty response differs from the
/// fault-free response along the path's steps.
///
/// The words are packed: `diff[0..length()-1]` are nonzero and every word
/// after them is zero, so the zero words mark the case's end and no length
/// is stored. Canonical form additionally keeps the words distinct and
/// sorted ascending: the path's distinct nonzero difference words. A parity
/// function covers the case iff it has odd overlap with one of them
/// (Statement 1), which depends only on this set — dormant steps (zero
/// words), repeats and step order are irrelevant to the cover problem, so
/// canonicalization merges equivalent paths without changing any solution.
/// `length()` can be shorter than p because of loop truncation (§2) and
/// this merging; it is always >= 1 (a case starts at an erroneous
/// transition).
struct ErroneousCase {
  std::array<std::uint64_t, kMaxLatency> diff{};

  /// The number of words: the nonzero ones, which come first. Written out
  /// for the four words (the size check below pins them): the sort's
  /// comparisons and the set's hash count them every call, and -O2 keeps a
  /// loop over the array.
  int length() const {
    return (diff[0] != 0) + (diff[1] != 0) + (diff[2] != 0) + (diff[3] != 0);
  }

  bool operator==(const ErroneousCase&) const = default;
};

static_assert(sizeof(ErroneousCase) == 32);

}  // namespace ced::core
