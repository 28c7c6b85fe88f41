#include "logic/minimize.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace ced::logic {
namespace {

// The cube tests run on 64-minterm words of the truth tables. Minterm m is
// bit m & 63 of word m >> 6, so variables 0-5 pick lanes inside a word and
// variables 6 and up pick words: a cube is one lane mask, repeated in
// every word its high literals select. Each test below touches
// 2^(free high variables) words instead of 2^(free variables) minterms
// and makes the decisions the minterm-at-a-time loops made, in the same
// order (tests/test_minimize.cpp keeps those loops as the oracle).

/// Lanes whose minterm has variable v (< 6) set.
constexpr std::uint64_t kVarLanes[6] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};

/// A cube as truth-table words: it selects `lanes` in word w exactly when
/// w agrees with `base` outside the `free` high variables (bit i of a word
/// index is variable 6 + i).
struct WordCube {
  std::uint64_t lanes;
  std::uint64_t base;
  std::uint64_t free;

  WordCube(const Cube& c, int num_vars) {
    const int low = std::min(num_vars, 6);
    lanes = low == 6 ? ~std::uint64_t{0}
                     : (std::uint64_t{1} << (1 << low)) - 1;
    for (int v = 0; v < low; ++v) {
      if ((c.care >> v) & 1) {
        lanes &= ((c.val >> v) & 1) ? kVarLanes[v] : ~kVarLanes[v];
      }
    }
    const std::uint64_t high =
        num_vars > 6 ? (std::uint64_t{1} << (num_vars - 6)) - 1 : 0;
    base = ((c.val & c.care) >> 6) & high;
    free = (~c.care >> 6) & high;
  }

  bool has_word(std::uint64_t w) const { return (w & ~free) == base; }

  /// Calls fn(w) on the cube's words in increasing order until one call
  /// returns true; returns whether one did.
  template <typename Fn>
  bool any_word(Fn&& fn) const {
    for (std::uint64_t sub = 0;; sub = (sub - free) & free) {
      if (fn(base | sub)) return true;
      if (sub == free) return false;
    }
  }
};

/// True if the cube contains no minterm of `off`; stops at the first word
/// that hits.
bool disjoint_from(const Cube& c, int num_vars,
                   const std::vector<std::uint64_t>& off) {
  const WordCube wc(c, num_vars);
  return !wc.any_word(
      [&](std::uint64_t w) { return (off[w] & wc.lanes) != 0; });
}

/// Removes literals from `c`, trying variables 0..n-1, while the cube stays
/// disjoint from the OFF-set. `c` is disjoint from it on entry, so dropping
/// literal v only adds the half-cube with v flipped, and only that half is
/// tested. One pass suffices: dropping a literal only widens the cube, so a
/// literal that could not be dropped earlier still cannot.
Cube expand_cube(Cube c, int num_vars, const std::vector<std::uint64_t>& off) {
  for (int v = 0; v < num_vars; ++v) {
    const std::uint64_t m = std::uint64_t{1} << v;
    if ((c.care & m) && disjoint_from(Cube{c.care, c.val ^ m}, num_vars, off)) {
      c = c.without_literal(v);
    }
  }
  return c;
}

/// The ON minterms of `wc`'s word `w` that no cube of `others` contains.
std::uint64_t uncovered_on(const WordCube& wc, std::uint64_t w,
                           const std::vector<std::uint64_t>& on,
                           const std::vector<const WordCube*>& others) {
  std::uint64_t left = on[w] & wc.lanes;
  for (const WordCube* o : others) {
    if (left == 0) break;
    if (o->has_word(w)) left &= ~o->lanes;
  }
  return left;
}

/// The cubes of `cubes` other than `i` that share a minterm with cube i.
void intersecting(const std::vector<Cube>& cubes,
                  const std::vector<WordCube>& words, std::size_t i,
                  const std::vector<bool>* removed,
                  std::vector<const WordCube*>& out) {
  out.clear();
  for (std::size_t j = 0; j < cubes.size(); ++j) {
    if (j == i || (removed && (*removed)[j])) continue;
    if (cubes[j].intersects(cubes[i])) out.push_back(&words[j]);
  }
}

std::vector<WordCube> word_cubes(const std::vector<Cube>& cubes,
                                 int num_vars) {
  std::vector<WordCube> words;
  words.reserve(cubes.size());
  for (const Cube& c : cubes) words.emplace_back(c, num_vars);
  return words;
}

/// Removes cubes whose ON-minterms are fully covered by the other cubes.
/// Cubes are considered from smallest to largest so that redundant small
/// cubes vanish first.
void irredundant(Cover& cover, const SopSpec& spec) {
  auto& cubes = cover.cubes();
  std::vector<std::size_t> order(cubes.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return cubes[a].num_literals() > cubes[b].num_literals();
  });

  const std::vector<WordCube> words = word_cubes(cubes, spec.num_vars);
  const std::vector<std::uint64_t>& on = spec.on.words();
  std::vector<bool> removed(cubes.size(), false);
  std::vector<const WordCube*> others;
  for (std::size_t oi : order) {
    // Is every ON-minterm of cubes[oi] covered by some other kept cube?
    intersecting(cubes, words, oi, &removed, others);
    const bool needed = words[oi].any_word([&](std::uint64_t w) {
      return uncovered_on(words[oi], w, on, others) != 0;
    });
    if (!needed) removed[oi] = true;
  }

  std::vector<Cube> kept;
  kept.reserve(cubes.size());
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    if (!removed[i]) kept.push_back(cubes[i]);
  }
  cubes = std::move(kept);
}

/// Shrinks each cube, in index order and against the cubes already shrunk,
/// to the smallest cube containing its ON-minterms that are not covered by
/// any other cube, giving EXPAND room to move.
void reduce(Cover& cover, const SopSpec& spec) {
  auto& cubes = cover.cubes();
  std::vector<WordCube> words = word_cubes(cubes, spec.num_vars);
  const std::vector<std::uint64_t>& on = spec.on.words();
  std::vector<const WordCube*> others;
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    intersecting(cubes, words, i, nullptr, others);
    // AND and OR of the private ON-minterms, a word at a time: a word's
    // minterms share its index in bits 6 and up, and bit v < 6 of their
    // AND (OR) is set when every (some) private lane has variable v set.
    std::uint64_t and_mask = ~std::uint64_t{0};
    std::uint64_t or_mask = 0;
    bool saw = false;
    words[i].any_word([&](std::uint64_t w) {
      const std::uint64_t lanes = uncovered_on(words[i], w, on, others);
      if (lanes == 0) return false;
      std::uint64_t lane_and = 0, lane_or = 0;
      for (int v = 0; v < 6; ++v) {
        if ((lanes & ~kVarLanes[v]) == 0) lane_and |= std::uint64_t{1} << v;
        if ((lanes & kVarLanes[v]) != 0) lane_or |= std::uint64_t{1} << v;
      }
      and_mask &= (w << 6) | lane_and;
      or_mask |= (w << 6) | lane_or;
      saw = true;
      return false;
    });
    if (!saw) continue;  // Fully shared cube; leave to IRREDUNDANT.
    // Smallest enclosing cube of the private ON-minterms.
    const std::uint64_t var_mask = (std::uint64_t{1} << spec.num_vars) - 1;
    Cube shrunk;
    // A variable stays free only if the private minterms disagree on it.
    shrunk.care = ~(and_mask ^ or_mask) & var_mask;
    shrunk.val = and_mask & shrunk.care;
    cubes[i] = shrunk;
    words[i] = WordCube(shrunk, spec.num_vars);
  }
}

}  // namespace

Cover minimize_espresso(const SopSpec& spec) {
  if (spec.num_vars > TruthTable::kMaxVars) {
    throw std::invalid_argument("minimize_espresso: too many variables");
  }
  const BitVec off_set = spec.off();
  const std::vector<std::uint64_t>& off = off_set.words();
  const std::vector<std::uint64_t>& on = spec.on.words();
  Cover cover(spec.num_vars);

  // Seeds in ascending minterm order, skipping the ones already covered.
  std::vector<std::uint64_t> covered(on.size(), 0);
  for (std::size_t w = 0; w < on.size(); ++w) {
    for (std::uint64_t todo = on[w]; (todo &= ~covered[w]) != 0;) {
      const std::uint64_t m = (std::uint64_t{w} << 6) |
                              static_cast<std::uint64_t>(std::countr_zero(todo));
      const Cube c =
          expand_cube(Cube::minterm(m, spec.num_vars), spec.num_vars, off);
      const WordCube wc(c, spec.num_vars);
      wc.any_word([&](std::uint64_t x) {
        covered[x] |= wc.lanes;
        return false;
      });
      cover.add(c);
    }
  }

  irredundant(cover, spec);

  // One REDUCE/EXPAND/IRREDUNDANT refinement, kept only when it shrinks
  // the cover (fewer cubes, or as many with fewer literals).
  Cover refined = cover;
  reduce(refined, spec);
  for (auto& c : refined.cubes()) c = expand_cube(c, spec.num_vars, off);
  refined.remove_contained_cubes();
  irredundant(refined, spec);
  if (refined.size() < cover.size() ||
      (refined.size() == cover.size() &&
       refined.num_literals() < cover.num_literals())) {
    return refined;
  }
  return cover;
}

}  // namespace ced::logic
