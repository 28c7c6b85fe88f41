// Experiment: claim C1 (§5 prose).
//
// The basic parity-based method at latency p=1 needs, on average, far fewer
// functions (paper: ~53% fewer) and lower hardware cost (~22% lower) than
// duplicate-and-compare. This harness reproduces that comparison: for every
// circuit it reports the duplication baseline (n predicted bits, full logic
// copy + comparator + shadow register) against the p=1 parity CED.

#include <cstdio>
#include <vector>

#include "common.hpp"
#include "core/duplication.hpp"

int main(int argc, char** argv) {
  using namespace ced;
  const auto circuits = bench::circuits_from_args(argc, argv);

  std::printf("Duplication baseline vs parity-based CED (latency p = 1)\n");
  std::printf("%-8s | %6s %9s | %6s %9s | %9s %9s\n", "Circuit", "dupFn",
              "dupCost", "q(p=1)", "cedCost", "fnRed%%", "costRed%%");
  std::printf("%s\n", std::string(72, '-').c_str());

  double fn_red = 0, cost_red = 0;
  std::size_t count = 0;
  core::PipelineOptions opts;
  opts.latency = 1;
  // The expensive pipeline runs fan out across circuits; the cheap
  // duplication baselines are computed serially below, in print order.
  const auto sweeps = bench::sweep_suite(circuits, {1}, opts,
                                         bench::threads_from_args(argc, argv));
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    const auto& name = circuits[c];
    const fsm::Fsm f = benchdata::suite_fsm(name);
    const core::PipelineReport& rep = sweeps[c][0];

    const core::DuplicationReport dup = core::duplication_baseline(
        core::derive_design(f, opts).circuit, opts.library);

    const double fr = bench::reduction_pct(
        static_cast<double>(dup.functions), rep.num_trees);
    const double cr = bench::reduction_pct(dup.area, rep.ced_area);
    std::printf("%-8s | %6zu %9.1f | %6d %9.1f | %8.1f%% %8.1f%%\n",
                name.c_str(), dup.functions, dup.area, rep.num_trees,
                rep.ced_area, fr, cr);
    std::fflush(stdout);
    fn_red += fr;
    cost_red += cr;
    ++count;
  }

  std::printf("%s\n", std::string(72, '-').c_str());
  std::printf(
      "average: %.1f%% fewer functions, %.1f%% lower cost than duplication\n",
      fn_red / static_cast<double>(count),
      cost_red / static_cast<double>(count));
  std::printf("(paper reports ~53%% fewer functions, ~22.4%% lower cost)\n");
  return 0;
}
