#pragma once

#include <cstdint>
#include <vector>

#include "common/names.hpp"
#include "fsm/fsm.hpp"

namespace ced::fsm {

/// State-assignment strategies.
enum class EncodingKind {
  kBinary,   ///< code(i) = i over ceil(log2 |S|) bits
  kGray,     ///< code(i) = i ^ (i >> 1)
  kOneHot,   ///< |S| bits, exactly one set
  kSpread,   ///< binary-width codes chosen to maximize pairwise Hamming
             ///< distance between adjacent states (greedy heuristic)
};

/// How the CLI's --encoding and a serve request's 'encoding' spell each
/// encoding (common/names.hpp).
inline constexpr NameTable<EncodingKind, 4> kEncodingNames{{
    {"binary", EncodingKind::kBinary},
    {"gray", EncodingKind::kGray},
    {"onehot", EncodingKind::kOneHot},
    {"spread", EncodingKind::kSpread},
}};

/// A concrete state assignment: `codes[state]` is its binary code over
/// `num_bits` bits.
struct StateEncoding {
  int num_bits = 0;
  std::vector<std::uint64_t> codes;

  /// Reverse lookup: state index with the given code, or -1.
  int state_of(std::uint64_t code) const;
};

/// Computes a state assignment for `f`.
StateEncoding encode_states(const Fsm& f, EncodingKind kind);

}  // namespace ced::fsm
