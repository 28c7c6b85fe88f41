#include "core/duplication.hpp"

#include "logic/synth.hpp"

namespace ced::core {

DuplicationReport duplication_baseline(const fsm::FsmCircuit& circuit,
                                       const logic::CellLibrary& lib) {
  // Rebuild the FSM logic from its minimized covers into a fresh netlist
  // (the duplicate), add inputs carrying the original machine's observable
  // bits, and compare.
  logic::Netlist dup;
  std::vector<std::uint32_t> var_nets;
  for (int i = 0; i < circuit.r(); ++i) {
    var_nets.push_back(dup.add_input("in" + std::to_string(i)));
  }
  for (int i = 0; i < circuit.s(); ++i) {
    var_nets.push_back(dup.add_input("shadow_st" + std::to_string(i)));
  }
  std::vector<std::uint32_t> obs_nets;
  for (int i = 0; i < circuit.n(); ++i) {
    obs_nets.push_back(dup.add_input("b" + std::to_string(i)));
  }

  logic::SynthContext ctx(dup);
  std::vector<std::uint32_t> dup_outs;
  for (const auto& cover : circuit.covers) {
    dup_outs.push_back(ctx.sop(cover, var_nets));
  }
  const std::uint32_t err = ctx.comparator(dup_outs, obs_nets);
  dup.mark_output(err, "error");

  DuplicationReport rep;
  rep.functions = static_cast<std::size_t>(circuit.n());
  const auto area = logic::measure_area(
      dup, lib, static_cast<std::size_t>(circuit.s()));  // shadow register
  rep.gates = area.gates;
  rep.area = area.area;
  return rep;
}

}  // namespace ced::core
