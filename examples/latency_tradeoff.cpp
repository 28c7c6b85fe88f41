// Explores the latency/overhead trade-off on one FSM (the paper's central
// idea): sweep the detection-latency bound p, report the minimum number of
// parity trees, the CED hardware cost, and the point where the benefit
// saturates (the shortest-loop bound of §2).
//
// Usage: latency_tradeoff [suite-circuit-name]   (default: donfile)

#include <cstdio>
#include <string>
#include <vector>

#include "benchdata/suite.hpp"
#include "core/latency.hpp"
#include "core/run.hpp"
#include "sim/faults.hpp"

int main(int argc, char** argv) {
  using namespace ced;
  const std::string name = argc > 1 ? argv[1] : "donfile";
  const fsm::Fsm machine = benchdata::suite_fsm(name);
  std::printf("circuit %s: %d inputs, %d states, %d outputs\n", name.c_str(),
              machine.num_inputs(), machine.num_states(),
              machine.num_outputs());

  core::PipelineOptions opts;
  const std::vector<int> latencies{1, 2, 3, 4};
  const auto reports =
      ced::run_latency_sweep(machine, latencies, RunConfig::wrap(opts));

  // Loop analysis: the latency beyond which no further benefit is possible.
  const core::Design design = core::derive_design(machine, opts);
  core::LatencyAnalysisOptions lo;
  lo.max_latency = 4;
  const core::LatencyAnalysis la =
      core::analyze_useful_latency(design.circuit, design.faults, lo);

  std::printf("\n%3s | %6s | %10s | %10s | %s\n", "p", "trees", "CED gates",
              "CED cost", "cost vs p=1");
  for (const auto& r : reports) {
    std::printf("%3d | %6d | %10zu | %10.1f | %+9.1f%%\n", r.latency,
                r.num_trees, r.ced_gates, r.ced_area,
                100.0 * (r.ced_area - reports[0].ced_area) /
                    reports[0].ced_area);
  }
  std::printf(
      "\nmaximum useful latency (shortest loop over faulty machines): %d\n",
      la.max_useful_latency);
  std::printf(
      "beyond that bound, every faulty path has looped and added latency\n"
      "cannot open new detection opportunities (Section 2 of the paper).\n");
  return 0;
}
