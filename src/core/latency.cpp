#include "core/latency.hpp"

#include <algorithm>
#include <unordered_set>

#include "core/erroneous_case.hpp"
#include "sim/fault_sim.hpp"

namespace ced::core {
namespace {

/// Depth-capped DFS over the faulty machine's walk: returns the length of
/// the longest loop-free path starting at `state` (the path ends when a
/// state repeats or the cap is hit).
int longest_loop_free(const fsm::FsmCircuit& circuit, sim::FaultyCache& faulty,
                      std::uint64_t state,
                      std::vector<std::uint64_t>& path, int cap) {
  if (static_cast<int>(path.size()) >= cap) return cap;
  // Distinct successors of `state` under the fault.
  std::vector<std::uint64_t> succ;
  for (std::uint64_t obs : faulty.rows(state)) {
    succ.push_back(circuit.next_state_of(obs));
  }
  std::sort(succ.begin(), succ.end());
  succ.erase(std::unique(succ.begin(), succ.end()), succ.end());

  int best = static_cast<int>(path.size());
  for (std::uint64_t next : succ) {
    if (std::find(path.begin(), path.end(), next) != path.end()) continue;
    path.push_back(next);
    best = std::max(best,
                    longest_loop_free(circuit, faulty, next, path, cap));
    path.pop_back();
    if (best >= cap) return cap;
  }
  return best;
}

}  // namespace

LatencyAnalysis analyze_useful_latency(
    const fsm::FsmCircuit& circuit, std::span<const sim::StuckAtFault> faults,
    const LatencyAnalysisOptions& opts) {
  LatencyAnalysis out;
  out.shortest_loop_per_fault.reserve(faults.size());

  std::vector<std::uint64_t> activation_codes;
  if (opts.restrict_to_reachable) {
    activation_codes = sim::reachable_codes(circuit, circuit.enc.reset_code);
  } else {
    for (std::uint64_t c = 0; c <= circuit.state_mask(); ++c) {
      activation_codes.push_back(c);
    }
  }
  const sim::GoldenTrace trace(circuit, activation_codes);
  sim::GoldenView golden(trace);

  for (const auto& f : faults) {
    sim::FaultyCache faulty(trace, f.injection());

    // Roots: faulty successors of activation transitions (the first
    // erroneous state of every path, §2).
    std::unordered_set<std::uint64_t> roots;
    for (std::uint64_t c : activation_codes) {
      const auto& good = golden.rows(c);
      const auto& bad = faulty.rows(c);
      for (std::size_t a = 0; a < good.size(); ++a) {
        if (good[a] != bad[a]) {
          roots.insert(circuit.next_state_of(bad[a]));
        }
      }
    }
    if (roots.empty()) {
      out.shortest_loop_per_fault.push_back(0);
      continue;
    }

    int bound = 0;
    for (std::uint64_t root : roots) {
      // Steps = the activation transition (into `root`) plus the loop-free
      // walk from there; a path of k states corresponds to k steps.
      std::vector<std::uint64_t> path{root};
      bound = std::max(bound, longest_loop_free(circuit, faulty, root, path,
                                                opts.max_latency));
      if (bound >= opts.max_latency) {
        bound = opts.max_latency;
        break;
      }
    }
    out.shortest_loop_per_fault.push_back(bound);
  }

  for (int l : out.shortest_loop_per_fault) {
    out.max_useful_latency = std::max(out.max_useful_latency, l);
  }
  out.max_useful_latency =
      std::min(std::max(out.max_useful_latency, 1), opts.max_latency);
  return out;
}

}  // namespace ced::core
