// Experiment: Table 1 of the paper (plus the §5 prose averages, claim C2).
//
// For every benchmark FSM: original circuit statistics (inputs, state bits,
// outputs, gates, cost) and, for latency bounds p = 1, 2, 3, the minimum
// number of parity trees found by Algorithm 1 together with the gate count
// and standard-cell cost of the synthesized CED hardware (compaction trees
// + prediction logic + comparator + hold registers, Fig. 3).
//
// Expected shape (paper): the number of parity functions and the CED cost
// decrease monotonically (on average) as the latency bound grows, with
// diminishing returns from p=2 to p=3.

#include <cstdio>
#include <vector>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace ced;
  const auto circuits = bench::circuits_from_args(argc, argv);
  const std::vector<int> ps{1, 2, 3};

  // The paper's detectability tables follow the GM/BM machine-level EC
  // definition of Section 3.1; use it here for fidelity (see
  // bench_semantics for the implementable-vs-paper ablation).
  core::PipelineOptions opts;
  opts.extract.semantics = core::DiffSemantics::kMachineLevel;

  std::printf(
      "Table 1: CED with bounded latency on MCNC-profile benchmark FSMs\n");
  std::printf("(machine-level EC semantics, as in the paper's Section 3.1)\n");
  std::printf(
      "%-8s | %3s %3s %3s %5s %7s | %4s %5s %7s | %4s %5s %7s | %4s %5s %7s\n",
      "Circuit", "In", "St", "Out", "Gates", "Cost", "q1", "Gat1", "Cost1",
      "q2", "Gat2", "Cost2", "q3", "Gat3", "Cost3");
  std::printf("%s\n", std::string(118, '-').c_str());

  struct Row {
    core::PipelineReport p1, p2, p3;
  };
  std::vector<Row> rows;
  bool degraded = false;

  // All circuits sweep concurrently (--threads=N / CED_THREADS); results
  // come back in input order so the table prints identically at any count.
  // --store=DIR caches extraction between runs of the harness.
  const auto sweeps =
      bench::sweep_suite(circuits, ps, opts, bench::threads_from_args(argc, argv),
                         bench::arg_value(argc, argv, "--store"));
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    const auto& name = circuits[c];
    const auto& reps = sweeps[c];
    degraded = degraded || bench::any_degraded(reps);
    const auto& r1 = reps[0];
    const auto& r2 = reps[1];
    const auto& r3 = reps[2];
    std::printf(
        "%-8s | %3d %3d %3d %5zu %7.1f | %4d%s %4zu %7.1f | %4d%s %4zu %7.1f "
        "| %4d%s %4zu %7.1f\n",
        name.c_str(), r1.inputs, r1.state_bits, r1.outputs, r1.orig_gates,
        r1.orig_area, r1.num_trees, bench::quality_tag(r1), r1.ced_gates,
        r1.ced_area, r2.num_trees, bench::quality_tag(r2), r2.ced_gates,
        r2.ced_area, r3.num_trees, bench::quality_tag(r3), r3.ced_gates,
        r3.ced_area);
    std::fflush(stdout);
    rows.push_back(Row{reps[0], reps[1], reps[2]});
  }

  // ---- Claim C2: average reductions (paper: p1->p2 about 17% trees / 8%
  // cost; p2->p3 a further ~7.2% / ~7.1%).
  double tree12 = 0, cost12 = 0, tree23 = 0, cost23 = 0;
  for (const auto& r : rows) {
    tree12 += bench::reduction_pct(r.p1.num_trees, r.p2.num_trees);
    cost12 += bench::reduction_pct(r.p1.ced_area, r.p2.ced_area);
    tree23 += bench::reduction_pct(r.p2.num_trees, r.p3.num_trees);
    cost23 += bench::reduction_pct(r.p2.ced_area, r.p3.ced_area);
  }
  const double n = static_cast<double>(rows.size());
  std::printf("%s\n", std::string(118, '-').c_str());
  std::printf(
      "avg reduction p=1 -> p=2: parity trees %.1f%%, CED cost %.1f%%\n",
      tree12 / n, cost12 / n);
  std::printf(
      "avg reduction p=2 -> p=3: parity trees %.1f%%, CED cost %.1f%%\n",
      tree23 / n, cost23 / n);
  std::printf(
      "(paper reports ~17%%/~8%% and ~7.2%%/~7.1%% on the original MCNC "
      "netlists)\n");
  if (degraded) {
    std::printf(
        "note: rows marked '*' ran degraded (budget valve / solver "
        "fallback); their q is an upper bound, see stderr for details\n");
  }
  return degraded ? 1 : 0;
}
