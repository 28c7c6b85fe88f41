#include "core/area_aware.hpp"

#include <algorithm>
#include <utility>

#include "core/coverkernel.hpp"
#include "core/rng.hpp"

namespace ced::core {
namespace {

/// Local-search sweeps over (tree, bit) flip moves.
constexpr int kPasses = 2;

}  // namespace

AreaAwareResult minimize_parity_area(const fsm::FsmCircuit& circuit,
                                     const DetectabilityTable& table,
                                     std::vector<ParityFunc> start,
                                     const AreaAwareOptions& opts) {
  // One serial synthesizer scores every candidate: the golden rows are
  // simulated once per refinement, not once per evaluation.
  CedSynthesizer ced(circuit, opts.ced, 1);
  // Every single-bit edit is checked against the whole table on one kernel.
  const CoverKernel kernel(table);
  const auto cost_of = [&](const std::vector<ParityFunc>& parities) {
    return ced.synthesize(parities).cost(opts.library).area;
  };
  AreaAwareResult res;
  res.parities = std::move(start);
  res.initial_area = cost_of(res.parities);
  res.evaluations = 1;
  double current = res.initial_area;

  Rng rng(opts.seed);
  const int n = table.num_bits;

  for (int pass = 0; pass < kPasses; ++pass) {
    bool improved = false;
    for (std::size_t t = 0; t < res.parities.size(); ++t) {
      // Visit bits in a random order so successive passes explore
      // different move sequences.
      std::vector<int> order(static_cast<std::size_t>(n));
      for (int j = 0; j < n; ++j) order[static_cast<std::size_t>(j)] = j;
      for (std::size_t j = order.size(); j > 1; --j) {
        std::swap(order[j - 1], order[rng.next() % j]);
      }

      for (int j : order) {
        if (res.evaluations >= opts.max_evaluations) {
          res.final_area = current;
          return res;
        }
        const ParityFunc saved = res.parities[t];
        res.parities[t] ^= std::uint64_t{1} << j;
        if (res.parities[t] == 0 || !kernel.covers_all(res.parities)) {
          res.parities[t] = saved;
          continue;
        }
        const double cand = cost_of(res.parities);
        ++res.evaluations;
        if (cand < current - 1e-9) {
          current = cand;
          improved = true;
        } else {
          res.parities[t] = saved;
        }
      }
    }
    if (!improved) break;
  }
  res.final_area = current;
  return res;
}

}  // namespace ced::core
