// Experiment: claim C3 (§2 + §5).
//
// The benefit of added latency saturates: once every faulty machine has
// looped, more latency cannot add detection alternatives. The bound is the
// largest over faults of the shortest loop of the faulty product machine.
// Small, self-loop-heavy FSMs (donfile, s27, s386) saturate almost
// immediately; larger machines (pma, s298, s1488) keep improving longer.
//
// This harness reports, per circuit: the computed maximum useful latency
// and the parity-tree count q(p) for p = 1..4, whose flattening should
// align with the bound.

#include <cstdio>
#include <vector>

#include "common.hpp"
#include "core/latency.hpp"
#include "core/run.hpp"
#include "sim/faults.hpp"

int main(int argc, char** argv) {
  using namespace ced;
  const auto circuits = bench::circuits_from_args(argc, argv);
  const std::vector<int> ps{1, 2, 3, 4};

  std::printf("Latency saturation: q(p) and the shortest-loop bound\n");
  std::printf("%-8s | %9s | %5s %5s %5s %5s | %s\n", "Circuit", "maxUseful",
              "q(1)", "q(2)", "q(3)", "q(4)", "saturated at");
  std::printf("%s\n", std::string(72, '-').c_str());

  for (const auto& name : circuits) {
    const fsm::Fsm f = benchdata::suite_fsm(name);
    core::PipelineOptions opts;
    opts.extract.semantics = core::DiffSemantics::kMachineLevel;
    const auto reps = ced::run_latency_sweep(f, ps, RunConfig::wrap(opts));

    const core::Design design = core::derive_design(f, opts);
    core::LatencyAnalysisOptions lo;
    lo.max_latency = 4;
    const core::LatencyAnalysis la =
        core::analyze_useful_latency(design.circuit, design.faults, lo);

    // First p after which q stops strictly decreasing.
    int saturated = 1;
    for (std::size_t i = 1; i < reps.size(); ++i) {
      if (reps[i].num_trees < reps[i - 1].num_trees) {
        saturated = static_cast<int>(i) + 1;
      }
    }
    std::printf("%-8s | %9d | %5d %5d %5d %5d | p=%d\n", name.c_str(),
                la.max_useful_latency, reps[0].num_trees, reps[1].num_trees,
                reps[2].num_trees, reps[3].num_trees, saturated);
    std::fflush(stdout);
  }
  std::printf(
      "\nReading: q(p) flattens at or before the shortest-loop bound;\n"
      "self-loop-heavy profiles (donfile, s27, s386) flatten earliest.\n");
  return 0;
}
