#include "core/area_aware.hpp"

#include <gtest/gtest.h>

#include "benchdata/handwritten.hpp"
#include "core/algorithm1.hpp"
#include "core/extract.hpp"
#include "kiss/kiss.hpp"
#include "oracle/covers.hpp"
#include "sim/faults.hpp"

namespace ced::core {
namespace {

struct Harness {
  fsm::FsmCircuit circuit;
  std::vector<sim::StuckAtFault> faults;
  DetectabilityTable table;
  /// Algorithm 1's count-minimal cover of `table`, the refinement's start.
  std::vector<ParityFunc> start;
};

Harness harness_for(const std::string& name, int p) {
  const fsm::Fsm f =
      fsm::Fsm::from_kiss(kiss::parse(benchdata::handwritten_kiss(name)));
  Harness s{fsm::synthesize_fsm(f, fsm::EncodingKind::kBinary), {}, {},
            {}};
  s.faults = sim::enumerate_stuck_at(s.circuit.netlist);
  ExtractOptions opts;
  opts.latency = p;
  s.table = extract_cases(s.circuit, s.faults, opts);
  s.start = minimize_parity_functions(s.table);
  return s;
}

class AreaAware : public ::testing::TestWithParam<const char*> {};

TEST_P(AreaAware, NeverWorseAndStillCovers) {
  const Harness s = harness_for(GetParam(), 2);
  const AreaAwareResult r =
      minimize_parity_area(s.circuit, s.table, s.start);
  EXPECT_LE(r.final_area, r.initial_area);
  EXPECT_TRUE(covers_all(r.parities, s.table));
  EXPECT_GE(r.evaluations, 1);
  // The result's reported final area matches a fresh synthesis.
  const CedHardware hw = synthesize_ced(s.circuit, r.parities);
  EXPECT_NEAR(hw.cost(logic::CellLibrary::mcnc()).area, r.final_area, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Machines, AreaAware,
                         ::testing::Values("seq_detect", "traffic", "vending",
                                           "link_rx"));

TEST(AreaAwareOpts, EvaluationBudgetIsRespected) {
  const Harness s = harness_for("vending", 2);
  AreaAwareOptions opts;
  opts.max_evaluations = 3;
  const AreaAwareResult r =
      minimize_parity_area(s.circuit, s.table, s.start, opts);
  EXPECT_LE(r.evaluations, 3);
  EXPECT_TRUE(covers_all(r.parities, s.table));
}

TEST(AreaAwareOpts, TreeCountNeverGrows) {
  const Harness s = harness_for("arbiter", 2);
  const AreaAwareResult r =
      minimize_parity_area(s.circuit, s.table, s.start);
  EXPECT_LE(r.parities.size(), s.start.size());
  // The starting area is the start's own checker.
  const CedHardware hw = synthesize_ced(s.circuit, s.start);
  EXPECT_NEAR(hw.cost(logic::CellLibrary::mcnc()).area, r.initial_area, 1e-9);
}

}  // namespace
}  // namespace ced::core
