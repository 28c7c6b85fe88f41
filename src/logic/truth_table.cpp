#include "logic/truth_table.hpp"

#include <stdexcept>

namespace ced::logic {

TruthTable::TruthTable(int num_vars) : num_vars_(num_vars) {
  if (num_vars < 0 || num_vars > kMaxVars) {
    throw std::invalid_argument("TruthTable variable count out of range");
  }
  bits_ = BitVec(std::size_t{1} << num_vars);
}

}  // namespace ced::logic
