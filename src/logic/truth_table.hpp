#pragma once

#include <cstdint>

#include "logic/bitvec.hpp"

namespace ced::logic {

/// Explicit truth table of a single-output Boolean function over up to
/// kMaxVars variables, stored as a minterm bit set (bit m = f(m)).
class TruthTable {
 public:
  static constexpr int kMaxVars = 22;

  TruthTable() = default;
  /// All-zero function of `num_vars` inputs.
  explicit TruthTable(int num_vars);

  int num_vars() const { return num_vars_; }
  std::uint64_t num_rows() const { return std::uint64_t{1} << num_vars_; }

  bool get(std::uint64_t assignment) const { return bits_.test(assignment); }
  void set(std::uint64_t assignment, bool v = true) {
    bits_.set(assignment, v);
  }

  const BitVec& bits() const { return bits_; }
  BitVec& bits() { return bits_; }

  bool operator==(const TruthTable&) const = default;

 private:
  int num_vars_ = 0;
  BitVec bits_;
};

/// An incompletely specified single-output function: ON-set and DC-set as
/// minterm bit sets of size 2^num_vars (the OFF-set is the complement of
/// their union). This is the interchange format consumed by the minimizer.
struct SopSpec {
  int num_vars = 0;
  BitVec on;
  BitVec dc;

  explicit SopSpec(int vars)
      : num_vars(vars),
        on(std::size_t{1} << vars),
        dc(std::size_t{1} << vars) {}

  BitVec off() const {
    BitVec o = on;
    o |= dc;
    return ~o;
  }
};

}  // namespace ced::logic
