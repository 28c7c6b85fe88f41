// End-to-end integration: pipeline + the exhaustive campaign's proof of the
// bounded-latency guarantee on every hand-written machine, across
// encodings and latency bounds.

#include <gtest/gtest.h>

#include "benchdata/handwritten.hpp"
#include "benchdata/suite.hpp"
#include "core/latency.hpp"
#include "core/pipeline.hpp"
#include "core/run.hpp"
#include "kiss/kiss.hpp"
#include "sim/campaign.hpp"

namespace ced::core {
namespace {

/// The sequential proof: the exhaustive stuck-at campaign at bound p.
sim::CampaignReport prove(const fsm::FsmCircuit& circuit,
                          const CedHardware& hw,
                          std::span<const sim::StuckAtFault> faults, int p) {
  sim::CampaignOptions co;
  co.latency_bound = p;
  return sim::run_campaign(circuit, hw, faults, co);
}

class EndToEnd : public ::testing::TestWithParam<std::tuple<const char*, int>> {
};

TEST_P(EndToEnd, BoundedDetectionHolds) {
  const auto [name, p] = GetParam();
  const fsm::Fsm f =
      fsm::Fsm::from_kiss(kiss::parse(benchdata::handwritten_kiss(name)));

  PipelineOptions opts;
  opts.latency = p;
  const PipelineReport rep = ced::run_pipeline(f, RunConfig::wrap(opts));
  EXPECT_GT(rep.num_trees, 0);
  EXPECT_GT(rep.num_cases, 0u);
  EXPECT_GT(rep.ced_area, 0.0);

  const Design d = derive_design(f, opts);
  const sim::CampaignReport cr = prove(d.circuit, rep.hw, d.faults, p);
  EXPECT_EQ(cr.detected_late + cr.silent_escape, 0u) << name << " p=" << p;
  EXPECT_EQ(cr.false_alarms, 0u) << name << " p=" << p;
  EXPECT_GT(cr.activations, 0u);
  EXPECT_LE(cr.max_latency, p);
}

INSTANTIATE_TEST_SUITE_P(
    Machines, EndToEnd,
    ::testing::Combine(::testing::Values("seq_detect", "traffic", "vending",
                                         "arbiter", "modulo5", "link_rx"),
                       ::testing::Values(1, 2, 3)));

TEST(EndToEndExtra, GreedySolverAlsoVerifies) {
  const fsm::Fsm f =
      fsm::Fsm::from_kiss(kiss::parse(benchdata::handwritten_kiss("vending")));
  PipelineOptions opts;
  opts.latency = 2;
  opts.solver = SolverKind::kGreedy;
  const PipelineReport rep = ced::run_pipeline(f, RunConfig::wrap(opts));
  const Design d = derive_design(f, opts);
  EXPECT_TRUE(prove(d.circuit, rep.hw, d.faults, 2).bound_holds());
}

TEST(EndToEndExtra, ExactSolverAlsoVerifies) {
  const fsm::Fsm f =
      fsm::Fsm::from_kiss(kiss::parse(benchdata::handwritten_kiss("traffic")));
  PipelineOptions opts;
  opts.latency = 2;
  opts.solver = SolverKind::kExact;
  const PipelineReport rep = ced::run_pipeline(f, RunConfig::wrap(opts));
  const Design d = derive_design(f, opts);
  EXPECT_TRUE(prove(d.circuit, rep.hw, d.faults, 2).bound_holds());
}

TEST(EndToEndExtra, GrayEncodingVerifies) {
  const fsm::Fsm f =
      fsm::Fsm::from_kiss(kiss::parse(benchdata::handwritten_kiss("modulo5")));
  PipelineOptions opts;
  opts.latency = 2;
  opts.encoding = fsm::EncodingKind::kGray;
  const PipelineReport rep = ced::run_pipeline(f, RunConfig::wrap(opts));
  const Design d = derive_design(f, opts);
  EXPECT_TRUE(prove(d.circuit, rep.hw, d.faults, 2).bound_holds());
}

TEST(EndToEndExtra, LatencySweepSharesExtraction) {
  const fsm::Fsm f =
      fsm::Fsm::from_kiss(kiss::parse(benchdata::handwritten_kiss("link_rx")));
  PipelineOptions opts;
  const std::vector<int> ps{1, 2, 3};
  const auto reports = ced::run_latency_sweep(f, ps, RunConfig::wrap(opts));
  ASSERT_EQ(reports.size(), 3u);
  // Monotone: more latency never needs more trees.
  EXPECT_LE(reports[1].num_trees, reports[0].num_trees);
  EXPECT_LE(reports[2].num_trees, reports[1].num_trees);
  for (const auto& r : reports) {
    EXPECT_EQ(r.orig_gates, reports[0].orig_gates);
    EXPECT_EQ(r.num_faults, reports[0].num_faults);
  }
}

TEST(EndToEndExtra, UsefulLatencyBoundsAreSane) {
  const fsm::Fsm f =
      fsm::Fsm::from_kiss(kiss::parse(benchdata::handwritten_kiss("traffic")));
  const fsm::FsmCircuit circuit =
      fsm::synthesize_fsm(f, fsm::EncodingKind::kBinary, {});
  const auto faults = sim::enumerate_stuck_at(circuit.netlist);
  const LatencyAnalysis la = analyze_useful_latency(circuit, faults);
  EXPECT_EQ(la.shortest_loop_per_fault.size(), faults.size());
  EXPECT_GE(la.max_useful_latency, 1);
  EXPECT_LE(la.max_useful_latency, 8);
  // Traffic is a 3-state ring with self-loops everywhere: loops are short.
  EXPECT_LE(la.max_useful_latency, 4);
}

TEST(EndToEndExtra, DeliberatelyWeakCoverIsCaughtByVerifier) {
  // Negative control: protect only one output bit; the verifier must find
  // activations that escape the bound.
  const fsm::Fsm f =
      fsm::Fsm::from_kiss(kiss::parse(benchdata::handwritten_kiss("vending")));
  const fsm::FsmCircuit circuit =
      fsm::synthesize_fsm(f, fsm::EncodingKind::kBinary, {});
  const auto faults = sim::enumerate_stuck_at(circuit.netlist);
  const std::vector<ParityFunc> weak{std::uint64_t{1}
                                     << (circuit.n() - 1)};
  const CedHardware hw = synthesize_ced(circuit, weak);
  const sim::CampaignReport cr = prove(circuit, hw, faults, 1);
  EXPECT_GT(cr.detected_late + cr.silent_escape, 0u);
  EXPECT_EQ(cr.false_alarms, 0u);  // a correct predictor never false-alarms
}

TEST(EndToEndExtra, MachineLevelCoverCanMissOnRealHardware) {
  // The reproduction finding in miniature: a cover of the machine-level
  // table is not guaranteed to satisfy the bound on the Fig. 3 checker.
  // (On some machines it happens to hold; this test only asserts that the
  // implementable cover is never *larger* in guarantees: it always passes.)
  const fsm::Fsm f =
      fsm::Fsm::from_kiss(kiss::parse(benchdata::handwritten_kiss("link_rx")));
  const fsm::FsmCircuit circuit =
      fsm::synthesize_fsm(f, fsm::EncodingKind::kBinary, {});
  const auto faults = sim::enumerate_stuck_at(circuit.netlist);

  ExtractOptions impl;
  impl.latency = 2;
  const auto ti = extract_cases(circuit, faults, impl);
  const auto cover = minimize_parity_functions(ti);
  const CedHardware hw = synthesize_ced(circuit, cover);
  EXPECT_TRUE(prove(circuit, hw, faults, 2).bound_holds());
}

TEST(EndToEndExtra, SyntheticSuiteSmallCircuitVerifies) {
  const fsm::Fsm f = benchdata::suite_fsm("s27");
  PipelineOptions opts;
  opts.latency = 2;
  const PipelineReport rep = ced::run_pipeline(f, RunConfig::wrap(opts));
  const Design d = derive_design(f, opts);
  const sim::CampaignReport cr = prove(d.circuit, rep.hw, d.faults, 2);
  EXPECT_TRUE(cr.bound_holds())
      << "violations=" << cr.detected_late + cr.silent_escape
      << " false_alarms=" << cr.false_alarms;
}

}  // namespace
}  // namespace ced::core
