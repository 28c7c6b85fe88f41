#include "core/pipeline.hpp"
#include "core/run.hpp"

#include <gtest/gtest.h>

#include "benchdata/handwritten.hpp"
#include "benchdata/suite.hpp"
#include "core/parity.hpp"
#include "kiss/kiss.hpp"

namespace ced::core {
namespace {

fsm::Fsm machine(const std::string& name) {
  return fsm::Fsm::from_kiss(kiss::parse(benchdata::handwritten_kiss(name)));
}

TEST(Pipeline, ReportFieldsAreConsistent) {
  PipelineOptions opts;
  opts.latency = 2;
  const PipelineReport rep = ced::run_pipeline(machine("link_rx"), RunConfig::wrap(opts));
  EXPECT_EQ(rep.inputs, 1);
  EXPECT_EQ(rep.outputs, 3);
  EXPECT_EQ(rep.state_bits, 3);
  EXPECT_EQ(rep.latency, 2);
  EXPECT_GT(rep.orig_gates, 0u);
  EXPECT_GT(rep.orig_area, 0.0);
  EXPECT_GT(rep.num_faults, 0u);
  EXPECT_GE(rep.num_detectable_faults, 1u);
  EXPECT_LE(rep.num_detectable_faults, rep.num_faults);
  EXPECT_GT(rep.num_cases, 0u);
  EXPECT_EQ(rep.num_trees, static_cast<int>(rep.parities.size()));
  EXPECT_GT(rep.ced_gates, 0u);
  EXPECT_GT(rep.ced_area, 0.0);
  EXPECT_GE(rep.t_extract, 0.0);
  EXPECT_GE(rep.t_solve, 0.0);
}

TEST(Pipeline, ReportCarriesTheCostedChecker) {
  // The checker Table 1 costs is the one the report hands out, and it is
  // the checker synthesize_ced builds for the run's own design with the
  // run's own CED options (two-rail on one pass, so a report built with
  // default options would differ).
  const std::vector<int> ps{1, 2, 3};
  for (const std::string& name : benchdata::small_suite_names()) {
    const fsm::Fsm f = benchdata::suite_fsm(name);
    for (const auto& [threads, two_rail] :
         {std::pair{1, false}, std::pair{4, false}, std::pair{4, true}}) {
      const RunConfig cfg =
          *RunConfig::Builder()
               .threads(threads)
               .tune([&](PipelineOptions& o) { o.ced.two_rail = two_rail; })
               .build();
      const PipelineOptions& opts = cfg.options();
      const Design design = derive_design(f, opts);
      for (const PipelineReport& rep : ced::run_latency_sweep(f, ps, cfg)) {
        const std::string where = name + " p=" + std::to_string(rep.latency) +
                                  " threads=" + std::to_string(threads) +
                                  (two_rail ? " two-rail" : "");
        EXPECT_EQ(rep.num_faults, design.faults.size()) << where;
        EXPECT_EQ(rep.hw.two_rail, two_rail) << where;
        EXPECT_EQ(rep.hw.parities, rep.parities) << where;
        const logic::AreaReport cost = rep.hw.cost(opts.library);
        EXPECT_EQ(cost.gates, rep.ced_gates) << where;
        EXPECT_EQ(cost.area, rep.ced_area) << where;

        const logic::Netlist& got = rep.hw.checker;
        const logic::Netlist want =
            synthesize_ced(design.circuit, rep.parities, opts.ced).checker;
        ASSERT_EQ(got.num_nets(), want.num_nets()) << where;
        for (std::uint32_t g = 0; g < got.num_nets(); ++g) {
          EXPECT_EQ(got.gate(g).type, want.gate(g).type) << where;
          EXPECT_EQ(got.gate(g).fanins, want.gate(g).fanins) << where;
        }
        EXPECT_EQ(got.outputs(), want.outputs()) << where;
      }
    }
  }
}

TEST(Pipeline, SweepIsMonotoneAndShares) {
  const std::vector<int> ps{1, 2, 3};
  PipelineOptions opts;
  const auto reps = ced::run_latency_sweep(machine("vending"), ps, RunConfig::wrap(opts));
  ASSERT_EQ(reps.size(), 3u);
  for (std::size_t i = 0; i < reps.size(); ++i) {
    EXPECT_EQ(reps[i].latency, ps[i]);
    EXPECT_EQ(reps[i].orig_gates, reps[0].orig_gates);
    EXPECT_EQ(reps[i].num_faults, reps[0].num_faults);
    if (i > 0) {
      EXPECT_LE(reps[i].num_trees, reps[i - 1].num_trees);
    }
  }
}

TEST(Pipeline, SolverKindsAllProduceValidCovers) {
  for (SolverKind kind :
       {SolverKind::kLpRounding, SolverKind::kGreedy, SolverKind::kExact}) {
    PipelineOptions opts;
    opts.latency = 2;
    opts.solver = kind;
    const PipelineReport rep = ced::run_pipeline(machine("traffic"), RunConfig::wrap(opts));
    EXPECT_GT(rep.num_trees, 0) << static_cast<int>(kind);
    // Every parity mask stays within the observable bits.
    const int n = rep.state_bits + rep.outputs;
    for (ParityFunc b : rep.parities) {
      EXPECT_NE(b, 0u);
      EXPECT_EQ(b >> n, 0u);
    }
  }
}

TEST(Pipeline, MachineLevelSemanticsSelectable) {
  PipelineOptions impl;
  impl.latency = 2;
  PipelineOptions ml = impl;
  ml.extract.semantics = DiffSemantics::kMachineLevel;
  const PipelineReport ri = ced::run_pipeline(machine("link_rx"), RunConfig::wrap(impl));
  const PipelineReport rm = ced::run_pipeline(machine("link_rx"), RunConfig::wrap(ml));
  // Machine-level tables are never harder than implementable ones.
  EXPECT_LE(rm.num_trees, ri.num_trees);
}

TEST(Pipeline, EncodingChoiceAffectsStateBits) {
  PipelineOptions onehot;
  onehot.latency = 1;
  onehot.encoding = fsm::EncodingKind::kOneHot;
  const PipelineReport rep = ced::run_pipeline(machine("traffic"), RunConfig::wrap(onehot));
  EXPECT_EQ(rep.state_bits, 3);  // 3 states one-hot
}

TEST(Pipeline, SweepAcceptsUnsortedLatencies) {
  const std::vector<int> ps{2, 1};
  PipelineOptions opts;
  const auto reps = ced::run_latency_sweep(machine("seq_detect"), ps, RunConfig::wrap(opts));
  ASSERT_EQ(reps.size(), 2u);
  EXPECT_EQ(reps[0].latency, 2);
  EXPECT_EQ(reps[1].latency, 1);
  EXPECT_GE(reps[1].num_trees, reps[0].num_trees);
}

}  // namespace
}  // namespace ced::core
