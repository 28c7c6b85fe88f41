#pragma once

#include "fsm/encoded.hpp"
#include "logic/area.hpp"
#include "logic/cover.hpp"
#include "logic/netlist.hpp"

namespace ced::fsm {

/// FSM synthesis has one flow (synthesize_fsm) and nothing to set. The
/// empty type stays only because perfbench passes PipelineOptions::synth
/// to synthesize_fsm; it goes with the next change to perfbench.
struct FsmSynthOptions {};

/// The synthesized FSM: encoded specification plus the combinational
/// next-state/output netlist.
///
/// Netlist interface contract:
///   inputs  0..r-1   primary inputs, r..r+s-1 present-state bits;
///   outputs 0..s-1   next-state bits, s..s+o-1 primary outputs.
/// The netlist is the *reference implementation*: don't-care choices made
/// during minimization become the machine's defined behaviour, and the
/// fault-free netlist is the golden model for all error analysis.
struct FsmCircuit {
  EncodedFsm enc;
  logic::Netlist netlist;
  /// Minimized cover per observable bit (next-state bits then outputs);
  /// retained for reporting and for predictor reuse.
  std::vector<logic::Cover> covers;

  int r() const { return enc.num_inputs; }
  int s() const { return enc.num_state_bits; }
  int o() const { return enc.num_outputs; }
  /// Observable bits n = s + o.
  int n() const { return enc.num_observable(); }

  std::uint64_t state_mask() const {
    return (std::uint64_t{1} << s()) - 1;
  }

  /// Evaluates one transition. Returns the packed observable word:
  /// bits 0..s-1 = next state code, bits s..n-1 = outputs.
  std::uint64_t eval(std::uint64_t input, std::uint64_t state_code,
                     const logic::Injection* injection = nullptr) const {
    return netlist.eval_single(enc.pack(input, state_code), injection);
  }

  std::uint64_t next_state_of(std::uint64_t observable) const {
    return observable & state_mask();
  }
};

/// Minimizes every next-state/output function of `enc` (Espresso),
/// factors each cover into multilevel logic, maps it onto gates at most
/// logic::kMaxFanin wide with shared literals, and optimizes the netlist.
FsmCircuit synthesize_fsm(const EncodedFsm& enc,
                          const FsmSynthOptions& opts = {});

/// Convenience: encode + synthesize in one step.
FsmCircuit synthesize_fsm(const Fsm& f, EncodingKind kind,
                          const FsmSynthOptions& opts = {});

}  // namespace ced::fsm
