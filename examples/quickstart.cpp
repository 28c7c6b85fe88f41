// Quickstart: protect a small FSM with bounded-latency concurrent error
// detection and verify the detection-latency guarantee end to end.
//
// Flow (the paper's Fig. 3 architecture):
//   KISS2 -> state assignment -> two-level synthesis -> stuck-at fault list
//   -> error detectability table at latency p -> minimal parity functions
//   (LP relaxation + randomized rounding, Algorithm 1) -> XOR compaction
//   trees + prediction logic + comparator -> exhaustive fault-injection
//   campaign over every bounded input path.

#include <cstdio>

#include "benchdata/handwritten.hpp"
#include "core/run.hpp"
#include "kiss/kiss.hpp"
#include "sim/campaign.hpp"

int main() {
  using namespace ced;

  // 1. Load an FSM (a hand-written link-layer receiver).
  const fsm::Fsm machine =
      fsm::Fsm::from_kiss(kiss::parse(benchdata::handwritten_kiss("link_rx")));
  std::printf("FSM: %d inputs, %d states, %d outputs\n", machine.num_inputs(),
              machine.num_states(), machine.num_outputs());

  // 2. Run the pipeline at latency bound p = 2 through the validated
  // configuration builder (build() returns Result<RunConfig>; an invalid
  // knob is reported there instead of deep inside the run).
  const Result<RunConfig> cfg = RunConfig::Builder().latency(2).build();
  const core::PipelineOptions& opts = cfg->options();
  const core::PipelineReport rep = ced::run_pipeline(machine, *cfg);

  std::printf("original logic : %zu gates, area %.1f\n", rep.orig_gates,
              rep.orig_area);
  std::printf("fault model    : %zu collapsed stuck-at faults, %zu erroneous "
              "cases\n",
              rep.num_faults, rep.num_cases);
  std::printf("parity trees   : q = %d\n", rep.num_trees);
  for (std::size_t l = 0; l < rep.parities.size(); ++l) {
    std::printf("  tree %zu taps bits: ", l);
    for (int j = 0; j < rep.state_bits + rep.outputs; ++j) {
      if ((rep.parities[l] >> j) & 1) std::printf("b%d ", j + 1);
    }
    std::printf("\n");
  }
  std::printf("CED hardware   : %zu gates, area %.1f (%.1f%% of original)\n",
              rep.ced_gates, rep.ced_area, 100.0 * rep.ced_area / rep.orig_area);

  // 3. Prove the bound on the checker the run costed (rep.hw): the
  // exhaustive campaign drives every stuck-at fault of the run's design
  // over every bounded input path from every reachable state, and sweeps
  // the fault-free design for false alarms.
  const core::Design design = core::derive_design(machine, opts);
  sim::CampaignOptions co;
  co.latency_bound = opts.latency;
  const sim::CampaignReport proof =
      sim::run_campaign(design.circuit, rep.hw, design.faults, co);
  std::printf("verification   : %zu faults, %llu activations checked, "
              "%llu violations, %llu false alarms -> %s\n",
              design.faults.size(),
              static_cast<unsigned long long>(proof.activations),
              static_cast<unsigned long long>(proof.detected_late +
                                              proof.silent_escape),
              static_cast<unsigned long long>(proof.false_alarms),
              proof.bound_holds() ? "OK" : "FAILED");
  return proof.bound_holds() ? 0 : 1;
}
