#include "logic/truth_table.hpp"

#include <stdexcept>

namespace ced::logic {

TruthTable::TruthTable(int num_vars) : num_vars_(num_vars) {
  if (num_vars < 0 || num_vars > kMaxVars) {
    throw std::invalid_argument("TruthTable variable count out of range");
  }
  bits_ = BitVec(std::size_t{1} << num_vars);
}

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

}  // namespace ced::logic
