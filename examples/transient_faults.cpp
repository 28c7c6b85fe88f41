// The paper's §2 assumption made visible: bounded-latency CED relies on
// the fault persisting for at least p clock cycles after causing an error.
// Permanent and wear-out intermittent faults qualify; single-event upsets
// (SEUs) do not. This example enumerates every activation scenario
// (fault, reachable state, input) of a p=2 protected design via the
// exhaustive campaign engine and replays it with three fault durations —
// a single cycle, p cycles, and persistent — showing that exactly the
// step-2-reliant error patterns escape the single-cycle case.

#include <cstdio>
#include <vector>

#include "benchdata/suite.hpp"
#include "core/extract.hpp"
#include "core/parity.hpp"
#include "core/run.hpp"
#include "sim/campaign.hpp"

using namespace ced;

namespace {

struct Outcome {
  std::size_t scenarios = 0;
  std::size_t caught_at_activation = 0;
  std::size_t caught_later = 0;
  std::size_t escaped = 0;
};

/// Exhaustive campaign with the fault active for `duration` cycles after
/// each activation. horizon == bound, so every activation not caught
/// within the bound lands in silent_escape — the example's "ESCAPED".
Outcome measure(const fsm::FsmCircuit& circuit, const core::CedHardware& hw,
                const std::vector<sim::StuckAtFault>& faults, int bound,
                int duration) {
  sim::CampaignOptions opts;
  opts.model = sim::FaultModel::kStuckAt;
  opts.policy = sim::CampaignPolicy::kExhaustive;
  opts.latency_bound = bound;
  opts.horizon = bound;
  opts.persistence = duration;
  const sim::CampaignReport rep =
      sim::run_campaign(circuit, hw, faults, opts);
  Outcome out;
  out.scenarios = static_cast<std::size_t>(rep.activations);
  out.caught_at_activation = static_cast<std::size_t>(rep.histogram[0]);
  out.caught_later =
      static_cast<std::size_t>(rep.detected_in_bound - rep.histogram[0]);
  out.escaped =
      static_cast<std::size_t>(rep.detected_late + rep.silent_escape);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const char* name = argc > 1 ? argv[1] : "dk16";
  const int p = 2;
  const fsm::Fsm machine = benchdata::suite_fsm(name);

  // Sweep p=1,2 so the p=2 solution actually exploits the latency.
  core::PipelineOptions opts;
  const std::vector<int> ps{1, 2};
  const auto reps =
      ced::run_latency_sweep(machine, ps, ced::RunConfig::wrap(opts));
  const core::PipelineReport& rep = reps[1];
  const core::Design design = core::derive_design(machine, opts);
  const fsm::FsmCircuit& circuit = design.circuit;
  const auto& faults = design.faults;

  core::ExtractOptions e1;
  e1.latency = 1;
  const auto t1 = core::extract_cases(circuit, faults, e1);
  const auto deferred = core::uncovered_cases(rep.parities, t1);
  std::printf("%s at latency bound p=%d: q=%d trees (latency-1 needs %d); "
              "%zu/%zu step-1 patterns deferred to step 2\n",
              name, p, rep.num_trees, reps[0].num_trees, deferred.size(),
              t1.cases.size());

  std::printf("\n%-22s | %9s | %9s | %9s | %9s\n", "fault duration",
              "scenarios", "at once", "later", "ESCAPED");
  for (int duration : {1, p, 1000}) {
    const Outcome o = measure(circuit, rep.hw, faults, p, duration);
    std::printf("%-22s | %9zu | %9zu | %9zu | %9zu\n",
                duration == 1000 ? "persistent"
                : duration == 1  ? "1 cycle (SEU-like)"
                                 : "p cycles",
                o.scenarios, o.caught_at_activation, o.caught_later,
                o.escaped);
  }
  std::printf(
      "\nReading: persistent (and >= p-cycle) faults are always caught —\n"
      "the §2 guarantee. Single-cycle upsets escape exactly when their\n"
      "error pattern was deferred to step-2 detection, which is why the\n"
      "paper excludes SEUs unless p = 1 or a memory-based checker\n"
      "(convolutional codes) is used.\n");
  return 0;
}
