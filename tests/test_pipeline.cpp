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
  // run's own CED options (two-rail on one pass, predictors without
  // unreachable-state don't-cares on another, so a report built with
  // default options would differ). The sweep synthesizes through one
  // CedSynthesizer at the run's thread count; synthesize_ced is serial.
  struct Config {
    int threads;
    bool two_rail, dc_unreachable;
  };
  const std::vector<int> ps{1, 2, 3};
  for (const std::string& name : benchdata::small_suite_names()) {
    const fsm::Fsm f = benchdata::suite_fsm(name);
    for (const Config& c : {Config{1, false, true}, Config{4, false, true},
                            Config{4, true, true}, Config{4, false, false}}) {
      const RunConfig cfg = *RunConfig::Builder()
                                 .threads(c.threads)
                                 .tune([&](PipelineOptions& o) {
                                   o.ced.two_rail = c.two_rail;
                                   o.ced.dc_unreachable = c.dc_unreachable;
                                 })
                                 .build();
      const PipelineOptions& opts = cfg.options();
      const Design design = derive_design(f, opts);
      for (const PipelineReport& rep : ced::run_latency_sweep(f, ps, cfg)) {
        const std::string where = name + " p=" + std::to_string(rep.latency) +
                                  " threads=" + std::to_string(c.threads) +
                                  (c.two_rail ? " two-rail" : "") +
                                  (c.dc_unreachable ? "" : " no-dc");
        EXPECT_EQ(rep.num_faults, design.faults.size()) << where;
        EXPECT_EQ(rep.hw.two_rail, c.two_rail) << where;
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
  for (SolverKind kind : {SolverKind::kLpRounding, SolverKind::kGreedy}) {
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

TEST(Pipeline, SingleLatencyRunIsLinkPOfTheChain) {
  // run_pipeline(p) solves the chain 1..p, so its answer at p is what a
  // sweep over 1..p answers there, at both semantics and at 1 and 4
  // threads. The last pass caps every LP solve at one iteration: a fixed
  // budget (no wall clock) that degrades every link deterministically, so
  // the degraded chain must match too.
  struct Pass {
    int threads, lp_cap;
  };
  for (const std::string& name : benchdata::small_suite_names()) {
    const fsm::Fsm f = benchdata::suite_fsm(name);
    for (const EnumName<DiffSemantics>& semantics : kSemanticsNames) {
      for (const Pass& pass : {Pass{1, 0}, Pass{4, 0}, Pass{4, 1}}) {
        const RunConfig base =
            *RunConfig::Builder()
                 .semantics(semantics.value)
                 .threads(pass.threads)
                 .tune([&](PipelineOptions& o) {
                   o.budget.max_lp_iterations = pass.lp_cap;
                 })
                 .build();
        std::vector<int> chain;
        for (int p = 1; p <= 3; ++p) {
          chain.push_back(p);
          const PipelineReport single = ced::run_pipeline(
              f, *RunConfig::Builder(base).latency(p).build());
          const PipelineReport link =
              ced::run_latency_sweep(f, chain, base).back();
          const std::string where =
              name + " " + std::string(semantics.name) +
              " p=" + std::to_string(p) +
              " threads=" + std::to_string(pass.threads) +
              " lp_cap=" + std::to_string(pass.lp_cap);
          EXPECT_EQ(single.latency, p) << where;
          EXPECT_EQ(single.parities, link.parities) << where;
          EXPECT_EQ(single.num_trees, link.num_trees) << where;
          EXPECT_EQ(single.resilience.degraded(), link.resilience.degraded())
              << where;
          EXPECT_EQ(link.resilience.degraded(), pass.lp_cap == 1) << where;
        }
      }
    }
  }
}

TEST(Pipeline, SweepAcceptsUnsortedLatencies) {
  // Every sweep is the one ascending solve chain, so an unsorted or gapped
  // latency list returns the matching links of the 1..3 sweep, in request
  // order. dk16 is an input where this matters: solved on their own, its
  // p=2 and p=3 tables take 6 trees; the chain keeps p=1's 5.
  const RunConfig cfg;
  for (const fsm::Fsm& f :
       {machine("seq_detect"), benchdata::suite_fsm("dk16")}) {
    const auto chain =
        ced::run_latency_sweep(f, std::vector<int>{1, 2, 3}, cfg);
    ASSERT_EQ(chain.size(), 3u);
    for (const std::vector<int>& ps :
         {std::vector<int>{2, 1}, std::vector<int>{3, 1},
          std::vector<int>{2, 3}}) {
      const auto reps = ced::run_latency_sweep(f, ps, cfg);
      ASSERT_EQ(reps.size(), ps.size());
      for (std::size_t i = 0; i < ps.size(); ++i) {
        const PipelineReport& link =
            chain[static_cast<std::size_t>(ps[i] - 1)];
        EXPECT_EQ(reps[i].latency, ps[i]);
        EXPECT_EQ(reps[i].parities, link.parities) << "p=" << ps[i];
        EXPECT_EQ(reps[i].num_trees, link.num_trees) << "p=" << ps[i];
      }
      // q never rises with p, whatever order the latencies came in.
      const bool ascending = ps[0] < ps[1];
      EXPECT_GE(reps[ascending ? 0 : 1].num_trees,
                reps[ascending ? 1 : 0].num_trees);
    }
  }
}

}  // namespace
}  // namespace ced::core
