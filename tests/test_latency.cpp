#include "core/latency.hpp"

#include <gtest/gtest.h>

#include "benchdata/handwritten.hpp"
#include "kiss/kiss.hpp"
#include "sim/faults.hpp"

namespace ced::core {
namespace {

fsm::FsmCircuit circuit_for_text(const char* kiss_text) {
  const fsm::Fsm f = fsm::Fsm::from_kiss(kiss::parse(kiss_text));
  return fsm::synthesize_fsm(f, fsm::EncodingKind::kBinary);
}

fsm::FsmCircuit circuit_for(const std::string& name) {
  return circuit_for_text(benchdata::handwritten_kiss(name).c_str());
}

TEST(UsefulLatency, OneEntryPerFault) {
  const fsm::FsmCircuit c = circuit_for("traffic");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  const LatencyAnalysis la = analyze_useful_latency(c, faults);
  EXPECT_EQ(la.shortest_loop_per_fault.size(), faults.size());
}

TEST(UsefulLatency, UndetectableFaultsReportZero) {
  // The second primary input never influences the machine, so its net has
  // no fanout: stuck-at faults on it produce no activation and must report
  // a zero loop length.
  const char* ignores_input = R"(.i 2
.o 1
0- A B 1
1- A A 0
0- B A 0
1- B B 1
.e
)";
  const fsm::FsmCircuit c = circuit_for_text(ignores_input);
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  const LatencyAnalysis la = analyze_useful_latency(c, faults);
  const std::uint32_t in1_net = c.netlist.inputs()[1];
  bool saw_in1 = false;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (faults[i].net == in1_net) {
      saw_in1 = true;
      EXPECT_EQ(la.shortest_loop_per_fault[i], 0) << faults[i].to_string();
    }
  }
  EXPECT_TRUE(saw_in1);
}

TEST(UsefulLatency, BoundIsPositiveAndCapped) {
  const fsm::FsmCircuit c = circuit_for("link_rx");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  LatencyAnalysisOptions opts;
  opts.max_latency = 3;
  const LatencyAnalysis la = analyze_useful_latency(c, faults, opts);
  EXPECT_GE(la.max_useful_latency, 1);
  EXPECT_LE(la.max_useful_latency, 3);
  for (int l : la.shortest_loop_per_fault) {
    EXPECT_GE(l, 0);
    EXPECT_LE(l, 3);
  }
}

TEST(UsefulLatency, SmallMachineSaturatesWithinItsCodeSpace) {
  // A loop-free faulty walk cannot be longer than the number of state
  // codes, so traffic (2 state bits -> 4 codes) saturates by p = 4.
  const fsm::FsmCircuit c = circuit_for("traffic");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  LatencyAnalysisOptions opts;
  opts.max_latency = 8;
  const LatencyAnalysis la = analyze_useful_latency(c, faults, opts);
  EXPECT_LE(la.max_useful_latency, 4);
  EXPECT_GE(la.max_useful_latency, 1);
}

TEST(UsefulLatency, PureSelfLoopFaultSaturatesImmediately) {
  // One-state machine: every faulty walk revisits its state at once, so
  // the useful bound collapses to 1 for every activating fault.
  const char* loop = ".i 1\n.o 1\n0 A A 0\n1 A A 1\n.e\n";
  const fsm::FsmCircuit c = circuit_for_text(loop);
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  const LatencyAnalysis la = analyze_useful_latency(c, faults);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    // Activating faults corrupt the single state bit or the output; a
    // walk over at most 2 codes saturates at depth <= 2.
    EXPECT_LE(la.shortest_loop_per_fault[i], 2) << faults[i].to_string();
  }
}

TEST(UsefulLatency, UnrestrictedModeCoversMoreActivations) {
  const fsm::FsmCircuit c = circuit_for("seq_detect");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  LatencyAnalysisOptions reach;
  LatencyAnalysisOptions all = reach;
  all.restrict_to_reachable = false;
  const LatencyAnalysis lr = analyze_useful_latency(c, faults, reach);
  const LatencyAnalysis la = analyze_useful_latency(c, faults, all);
  // More activation roots can only keep or shrink per-fault shortest loops
  // being zero; detectable count can only grow.
  int detectable_r = 0, detectable_a = 0;
  for (int l : lr.shortest_loop_per_fault) detectable_r += l > 0;
  for (int l : la.shortest_loop_per_fault) detectable_a += l > 0;
  EXPECT_GE(detectable_a, detectable_r);
}

}  // namespace
}  // namespace ced::core
