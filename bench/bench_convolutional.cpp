// Related-work experiment: convolutional-code CED vs the paper's scheme.
//
// §1 of the paper: the only previously proposed bounded-latency method uses
// convolutional codes [4][14], "yet no indication of its cost is provided.
// Unfortunately, for convolutional codes of latency more than one clock
// cycle, the method becomes cumbersome." This harness provides the missing
// cost indication: a functional convolutional checker (latency-1 key cover,
// XOR accumulators sampled every K cycles) against the paper's bounded-
// latency parity scheme at the same bound, plus a sequential measurement of
// detection escapes for each.

#include <cstdio>

#include "common.hpp"
#include "core/convolutional.hpp"
#include "core/extract.hpp"
#include "core/rng.hpp"
#include "core/run.hpp"
#include "sim/faults.hpp"

namespace {

using namespace ced;

/// Random-walk escape measurement for the convolutional checker.
struct ConvOutcome {
  std::size_t activations = 0;
  std::size_t escapes = 0;  // activation with no error within 2 windows
};

ConvOutcome measure_conv(const fsm::FsmCircuit& circuit,
                         const core::ConvolutionalCed& ced,
                         const std::vector<sim::StuckAtFault>& faults) {
  ConvOutcome out;
  core::Rng rng(0xc04f);
  const std::uint64_t input_mask = (std::uint64_t{1} << circuit.r()) - 1;
  for (const auto& f : faults) {
    const logic::Injection inj = f.injection();
    core::ConvolutionalChecker checker(ced);
    for (int w = 0; w < 4; ++w) {
      std::uint64_t state = circuit.enc.reset_code;
      checker.reset();
      int pending = -1;
      for (int t = 0; t < 64; ++t) {
        const std::uint64_t a = rng.next() & input_mask;
        const std::uint64_t obs = circuit.eval(a, state, &inj);
        const bool err = checker.step(a, state, obs);
        if (obs != circuit.eval(a, state) && pending < 0) {
          pending = t;
          ++out.activations;
        }
        if (err) {
          pending = -1;
          state = circuit.enc.reset_code;
          checker.reset();
          continue;
        }
        if (pending >= 0 && t - pending + 1 >= 2 * ced.window) {
          ++out.escapes;
          pending = -1;
          state = circuit.enc.reset_code;
          checker.reset();
          continue;
        }
        state = circuit.next_state_of(obs);
      }
    }
  }
  return out;
}

int run(int argc, char** argv) {
  using namespace ced;
  cli::reject_unknown_flags(argc, argv, "bench_convolutional",
                            {bench::kSuiteFlags});
  auto circuits = bench::circuits_from_args(argc, argv);
  if (!cli::has_flag(argc, argv, "--quick") && circuits.size() > 10) {
    circuits.resize(10);
  }

  std::printf(
      "Convolutional-code CED (window K) vs bounded-latency parity CED\n");
  std::printf("%-8s | %4s %9s %7s | %4s %9s | %4s %9s %7s | %4s %9s\n",
              "Circuit", "qcnv", "cost(K=2)", "escapes", "q(2)", "cost(p=2)",
              "qcnv", "cost(K=3)", "escapes", "q(3)", "cost(p=3)");
  std::printf("%s\n", std::string(100, '-').c_str());

  for (const auto& name : circuits) {
    const fsm::Fsm f = benchdata::suite_fsm(name);
    core::PipelineOptions popts;
    const std::vector<int> ps{1, 2, 3};
    const auto reps = ced::run_latency_sweep(f, ps, RunConfig::wrap(popts));

    const core::Design design = core::derive_design(f, popts);
    const fsm::FsmCircuit& circuit = design.circuit;
    const auto& faults = design.faults;
    core::ExtractOptions ex;
    ex.latency = 1;
    const auto p1 = core::extract_cases(circuit, faults, ex);

    const auto& lib = logic::CellLibrary::mcnc();
    double conv_cost[2];
    std::size_t conv_escapes[2];
    std::size_t conv_q = 0;
    for (int i = 0; i < 2; ++i) {
      const int window = i + 2;
      const core::ConvolutionalCed ced =
          core::synthesize_convolutional(circuit, p1, window);
      conv_q = ced.keys.size();
      conv_cost[i] = ced.cost(lib).area;
      conv_escapes[i] = measure_conv(circuit, ced, faults).escapes;
    }

    std::printf(
        "%-8s | %4zu %9.1f %7zu | %4d %9.1f | %4zu %9.1f %7zu | %4d %9.1f\n",
        name.c_str(), conv_q, conv_cost[0], conv_escapes[0],
        reps[1].num_trees, reps[1].ced_area, conv_q, conv_cost[1],
        conv_escapes[1], reps[2].num_trees, reps[2].ced_area);
    std::fflush(stdout);
  }
  std::printf("%s\n", std::string(100, '-').c_str());
  std::printf(
      "Reading: the convolutional checker keeps the full latency-1 key set\n"
      "plus accumulator state, so its cost does not drop as the bound\n"
      "grows, while the paper's scheme sheds parity trees; this is the\n"
      "cost comparison the paper said was missing from [14].\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ced::cli::run_main(run, argc, argv);
}
