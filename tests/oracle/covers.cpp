#include "oracle/covers.hpp"

namespace ced::core {

bool covers_all(std::span<const ParityFunc> betas,
                const DetectabilityTable& table) {
  for (const ErroneousCase& ec : table.cases) {
    if (!covers(betas, ec)) return false;
  }
  return true;
}

std::vector<std::uint32_t> uncovered_cases(std::span<const ParityFunc> betas,
                                           const DetectabilityTable& table) {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < table.cases.size(); ++i) {
    if (!covers(betas, table.cases[i])) {
      out.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return out;
}

}  // namespace ced::core
