#include "fsm/synthesize.hpp"

#include "logic/factor.hpp"
#include "logic/minimize.hpp"
#include "logic/opt.hpp"

namespace ced::fsm {

FsmCircuit synthesize_fsm(const EncodedFsm& enc, const FsmSynthOptions&) {
  FsmCircuit c;
  c.enc = enc;

  std::vector<std::uint32_t> var_nets;
  for (int i = 0; i < enc.num_inputs; ++i) {
    var_nets.push_back(c.netlist.add_input("in" + std::to_string(i)));
  }
  for (int i = 0; i < enc.num_state_bits; ++i) {
    var_nets.push_back(c.netlist.add_input("st" + std::to_string(i)));
  }

  logic::SynthContext ctx(c.netlist);
  auto emit = [&](const logic::SopSpec& spec, const std::string& name) {
    logic::Cover cover = logic::minimize_espresso(spec);
    c.netlist.mark_output(
        logic::synthesize_factor(ctx, logic::factor_cover(cover), var_nets),
        name);
    c.covers.push_back(std::move(cover));
  };
  for (int b = 0; b < enc.num_state_bits; ++b) {
    emit(enc.next_state[b], "ns" + std::to_string(b));
  }
  for (int b = 0; b < enc.num_outputs; ++b) {
    emit(enc.outputs[b], "out" + std::to_string(b));
  }
  c.netlist = logic::optimize_netlist(c.netlist);
  return c;
}

FsmCircuit synthesize_fsm(const Fsm& f, EncodingKind kind,
                          const FsmSynthOptions& opts) {
  return synthesize_fsm(encode_fsm(f, kind), opts);
}

}  // namespace ced::fsm
