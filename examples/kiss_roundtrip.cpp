// Minimal tour of the FSM substrate: parse KISS2 from stdin (or a built-in
// sample), validate it, print STG statistics and the synthesized logic
// costs under three state encodings, and write normalized KISS2 back out.
//
// Usage: kiss_roundtrip < my_machine.kiss
//        kiss_roundtrip --sample

#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>

#include "benchdata/handwritten.hpp"
#include "fsm/analysis.hpp"
#include "fsm/synthesize.hpp"
#include "kiss/kiss.hpp"
#include "logic/area.hpp"

int main(int argc, char** argv) {
  using namespace ced;
  std::string text;
  if (argc > 1 && std::strcmp(argv[1], "--sample") == 0) {
    text = benchdata::handwritten_kiss("arbiter");
  } else {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    text = ss.str();
    if (text.empty()) text = benchdata::handwritten_kiss("arbiter");
  }

  const kiss::Kiss2 k = kiss::parse(text);
  const fsm::Fsm machine = fsm::Fsm::from_kiss(k);
  const fsm::StgStats st = fsm::analyze_stg(machine);

  std::printf("inputs=%d outputs=%d states=%d edges=%d\n",
              machine.num_inputs(), machine.num_outputs(), st.num_states,
              st.num_edges);
  std::printf("self-loops=%d (on %d states), shortest cycle=%d, "
              "reachable=%d/%d, complete=%s\n",
              st.num_self_loops, st.states_with_self_loop, st.shortest_cycle,
              st.reachable_states, st.num_states,
              machine.is_complete() ? "yes" : "no");

  std::printf("\nsynthesized two-level logic by encoding:\n");
  const auto& lib = logic::CellLibrary::mcnc();
  struct {
    const char* name;
    fsm::EncodingKind kind;
  } encodings[] = {{"binary", fsm::EncodingKind::kBinary},
                   {"gray", fsm::EncodingKind::kGray},
                   {"spread", fsm::EncodingKind::kSpread}};
  for (const auto& e : encodings) {
    const fsm::FsmCircuit c = fsm::synthesize_fsm(machine, e.kind);
    const auto area = logic::measure_area(
        c.netlist, lib, static_cast<std::size_t>(c.s()));
    std::printf("  %-7s: %d state bits, %zu gates, area %.1f\n", e.name,
                c.s(), area.gates, area.area);
  }

  std::printf("\nnormalized KISS2:\n%s", kiss::write(machine.to_kiss()).c_str());
  return 0;
}
