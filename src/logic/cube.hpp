#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace ced::logic {

/// A product term (cube) over at most 64 Boolean variables.
///
/// Each variable is either absent (don't-care in the product) or appears as a
/// positive/negative literal. The representation is a pair of masks:
///   care bit i = 1  -> variable i appears as a literal,
///   val  bit i      -> polarity of that literal (meaningful only when care=1).
///
/// A minterm (complete variable assignment) is a `std::uint64_t` whose bit i
/// holds the value of variable i. The 64-variable limit comfortably covers
/// every function handled by this library (FSM next-state/output logic over
/// primary inputs + state bits).
struct Cube {
  std::uint64_t care = 0;
  std::uint64_t val = 0;

  /// The universal cube (tautology: no literals).
  static Cube universe() { return Cube{}; }

  /// Cube equal to a single minterm over `num_vars` variables.
  static Cube minterm(std::uint64_t assignment, int num_vars);

  /// Number of literals in the product.
  int num_literals() const;

  /// True if the cube contains the given complete assignment.
  bool contains(std::uint64_t assignment) const {
    return ((assignment ^ val) & care) == 0;
  }

  /// True if `other`'s cube (as a set of minterms) is a subset of this one.
  bool covers(const Cube& other) const {
    // Every literal of *this must be present in `other` with equal polarity.
    return (care & ~other.care) == 0 && ((val ^ other.val) & care) == 0;
  }

  /// True if the two cubes share at least one minterm.
  bool intersects(const Cube& other) const {
    return ((val ^ other.val) & care & other.care) == 0;
  }

  /// Intersection of two cubes; only valid when intersects() is true.
  Cube intersection(const Cube& other) const {
    return Cube{care | other.care, (val & care) | (other.val & other.care)};
  }

  /// Adds/replaces a literal on variable `var` with the given polarity.
  Cube with_literal(int var, bool positive) const;

  /// Removes the literal (if any) on variable `var`.
  Cube without_literal(int var) const;

  /// Number of minterms of the cube when interpreted over `num_vars` vars.
  std::uint64_t num_minterms(int num_vars) const;

  /// PLA-style text: one char per variable, '0'/'1'/'-', variable 0 first.
  std::string to_string(int num_vars) const;

  bool operator==(const Cube&) const = default;
};

/// Calls `fn(minterm)` for every complete assignment contained in the cube.
/// `fn` may return void; enumeration is in increasing minterm order of the
/// free variables. Intended for cubes over <= ~20 variables.
template <typename Fn>
void for_each_minterm(const Cube& c, int num_vars, Fn&& fn) {
  const std::uint64_t var_mask =
      num_vars >= 64 ? ~std::uint64_t{0}
                     : ((std::uint64_t{1} << num_vars) - 1);
  const std::uint64_t free_mask = ~c.care & var_mask;
  const std::uint64_t base = c.val & c.care;
  // Standard subset-enumeration trick over the free variable mask.
  std::uint64_t sub = 0;
  while (true) {
    fn(base | sub);
    if (sub == free_mask) break;
    sub = (sub - free_mask) & free_mask;
  }
}

}  // namespace ced::logic
