#include "oracle/minimize.hpp"

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace ced::logic {

bool cover_implements(const Cover& cover, const SopSpec& spec) {
  if (cover.num_vars() != spec.num_vars) return false;
  // No cube may touch the OFF-set.
  const BitVec off = spec.off();
  BitVec covered(std::size_t{1} << spec.num_vars);
  for (const auto& cube : cover.cubes()) {
    bool bad = false;
    for_each_minterm(cube, spec.num_vars, [&](std::uint64_t m) {
      if (off.test(m)) bad = true;
      covered.set(m);
    });
    if (bad) return false;
  }
  return spec.on.is_subset_of(covered);
}

namespace {

struct CubeHash {
  std::size_t operator()(const Cube& c) const {
    std::uint64_t h = c.care * 0x9e3779b97f4a7c15ull;
    h ^= c.val + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return static_cast<std::size_t>(h);
  }
};

struct CubeKey {
  bool operator()(const Cube& a, const Cube& b) const {
    return a.care == b.care && a.val == b.val;
  }
};

/// Quine-McCluskey prime implicant generation over ON ∪ DC.
std::vector<Cube> prime_implicants(const SopSpec& spec) {
  std::unordered_set<Cube, CubeHash, CubeKey> current;
  for (std::size_t m = 0; m < spec.on.size(); ++m) {
    if (spec.on.test(m) || spec.dc.test(m)) {
      current.insert(Cube::minterm(m, spec.num_vars));
    }
  }

  std::vector<Cube> primes;
  while (!current.empty()) {
    std::unordered_set<Cube, CubeHash, CubeKey> next;
    std::unordered_set<Cube, CubeHash, CubeKey> merged;
    // Group by care mask; two cubes merge when care masks match and values
    // differ in exactly one cared bit.
    std::vector<Cube> cubes(current.begin(), current.end());
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_care;
    for (std::size_t i = 0; i < cubes.size(); ++i) {
      by_care[cubes[i].care].push_back(i);
    }
    for (const auto& [care, idxs] : by_care) {
      (void)care;
      for (std::size_t a = 0; a < idxs.size(); ++a) {
        for (std::size_t b = a + 1; b < idxs.size(); ++b) {
          const Cube& x = cubes[idxs[a]];
          const Cube& y = cubes[idxs[b]];
          const std::uint64_t diff = (x.val ^ y.val) & x.care;
          if (std::popcount(diff) == 1) {
            Cube m{x.care & ~diff, x.val & ~diff & (x.care & ~diff)};
            m.val = x.val & m.care;
            next.insert(m);
            merged.insert(x);
            merged.insert(y);
          }
        }
      }
    }
    for (const auto& c : cubes) {
      if (!merged.count(c)) primes.push_back(c);
    }
    current = std::move(next);
  }
  return primes;
}

/// Branch-and-bound minimum unate cover: rows are ON minterms, columns are
/// primes. Ties broken toward fewer literals.
class CoverSolver {
 public:
  CoverSolver(const std::vector<Cube>& primes,
              const std::vector<std::uint64_t>& rows)
      : primes_(primes), rows_(rows) {
    row_candidates_.resize(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      for (std::size_t p = 0; p < primes.size(); ++p) {
        if (primes[p].contains(rows[r])) row_candidates_[r].push_back(p);
      }
    }
  }

  std::vector<std::size_t> solve() {
    best_size_ = std::numeric_limits<std::size_t>::max();
    std::vector<bool> row_done(rows_.size(), false);
    std::vector<std::size_t> chosen;
    recurse(row_done, chosen);
    return best_;
  }

 private:
  void recurse(std::vector<bool>& row_done, std::vector<std::size_t>& chosen) {
    if (chosen.size() + 1 > best_size_) return;  // bound (need >= 1 more?)
    // Find the uncovered row with the fewest candidate primes.
    std::size_t pick = rows_.size();
    std::size_t pick_deg = std::numeric_limits<std::size_t>::max();
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      if (row_done[r]) continue;
      if (row_candidates_[r].size() < pick_deg) {
        pick = r;
        pick_deg = row_candidates_[r].size();
      }
    }
    if (pick == rows_.size()) {  // everything covered
      if (chosen.size() < best_size_ ||
          (chosen.size() == best_size_ &&
           literal_count(chosen) < literal_count(best_))) {
        best_ = chosen;
        best_size_ = chosen.size();
      }
      return;
    }
    if (chosen.size() + 1 > best_size_) return;
    for (std::size_t p : row_candidates_[pick]) {
      std::vector<std::size_t> newly;
      for (std::size_t r = 0; r < rows_.size(); ++r) {
        if (!row_done[r] && primes_[p].contains(rows_[r])) {
          row_done[r] = true;
          newly.push_back(r);
        }
      }
      chosen.push_back(p);
      recurse(row_done, chosen);
      chosen.pop_back();
      for (std::size_t r : newly) row_done[r] = false;
    }
  }

  int literal_count(const std::vector<std::size_t>& sel) const {
    int n = 0;
    for (std::size_t p : sel) n += primes_[p].num_literals();
    return n;
  }

  const std::vector<Cube>& primes_;
  const std::vector<std::uint64_t>& rows_;
  std::vector<std::vector<std::size_t>> row_candidates_;
  std::vector<std::size_t> best_;
  std::size_t best_size_ = 0;
};

}  // namespace

Cover minimize_exact(const SopSpec& spec) {
  if (spec.num_vars > 14) {
    throw std::invalid_argument("minimize_exact: too many variables");
  }
  std::vector<Cube> primes = prime_implicants(spec);
  std::vector<std::uint64_t> rows;
  for (std::size_t m = spec.on.find_first(); m < spec.on.size();
       m = spec.on.find_next(m)) {
    rows.push_back(m);
  }
  if (rows.empty()) return Cover(spec.num_vars);
  CoverSolver solver(primes, rows);
  Cover result(spec.num_vars);
  for (std::size_t p : solver.solve()) result.add(primes[p]);
  return result;
}

}  // namespace ced::logic
