// Fault-injection harness for the resilience layer: starve each stage of
// its budget (cases, LP pivots, rounding attempts, wall-clock)
// and assert that the run still terminates with a classified status, the
// degradation is recorded, and the returned cover is usable for the cases
// that were actually enumerated.

#include "core/resilience.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <vector>

#include "benchdata/generator.hpp"
#include "benchdata/handwritten.hpp"
#include "core/extract.hpp"
#include "core/greedy.hpp"
#include "core/parity.hpp"
#include "core/pipeline.hpp"
#include "core/run.hpp"
#include "kiss/kiss.hpp"
#include "lp/simplex.hpp"
#include "oracle/covers.hpp"
#include "sim/faults.hpp"

namespace ced::core {
namespace {

fsm::Fsm machine(const std::string& name) {
  return fsm::Fsm::from_kiss(kiss::parse(benchdata::handwritten_kiss(name)));
}

DetectabilityTable table_for(const std::string& name, int latency) {
  const fsm::FsmCircuit c =
      fsm::synthesize_fsm(machine(name), fsm::EncodingKind::kBinary);
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions opts;
  opts.latency = latency;
  return extract_cases(c, faults, opts);
}

// An already-expired deadline: armed, and in the past by construction.
Deadline expired_deadline() {
  Deadline d = Deadline::after(1e-12);
  while (!d.expired()) {
  }
  return d;
}

// ---------------------------------------------------------------- budget

TEST(Resilience, DefaultBudgetIsUnlimitedAndDeadlineUnarmed) {
  RunBudget b;
  EXPECT_TRUE(b.unlimited());
  Deadline d;
  EXPECT_FALSE(d.armed());
  EXPECT_FALSE(d.expired());
  EXPECT_FALSE(Deadline::from(b).armed());
  b.max_cases = 1;
  EXPECT_FALSE(b.unlimited());
}

TEST(Resilience, ArmedDeadlineExpires) {
  const Deadline d = expired_deadline();
  EXPECT_TRUE(d.armed());
  EXPECT_TRUE(d.expired());
}

// A budget past steady_clock's range (about 292 years of nanoseconds)
// must not overflow into a deadline in the past.
TEST(Resilience, HugeDeadlineSaturatesAndNeverExpires) {
  for (const double seconds :
       {1e10, 1e300, std::numeric_limits<double>::infinity()}) {
    const Deadline d = Deadline::after(seconds);
    EXPECT_TRUE(d.armed()) << seconds;
    EXPECT_FALSE(d.expired()) << seconds;
    EXPECT_EQ(d.time_point(), std::chrono::steady_clock::time_point::max())
        << seconds;
  }
  const Deadline year = Deadline::after(365.0 * 24 * 3600);
  EXPECT_TRUE(year.armed());
  EXPECT_FALSE(year.expired());
  EXPECT_LT(year.time_point(), std::chrono::steady_clock::time_point::max());
}

TEST(Resilience, ReportClassifiesDegradation) {
  ResilienceReport r;
  EXPECT_FALSE(r.degraded());
  EXPECT_TRUE(r.summary().empty());
  r.record(Stage::kLp, StatusCode::kTruncated, "pivot budget exhausted");
  EXPECT_TRUE(r.degraded());
  EXPECT_NE(r.summary().find("pivot budget"), std::string::npos);
}

// ------------------------------------------------------------ extraction

TEST(Resilience, ExtractionDeadlineFreezesTables) {
  const fsm::FsmCircuit c =
      fsm::synthesize_fsm(machine("link_rx"), fsm::EncodingKind::kBinary);
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions opts;
  opts.latency = 3;
  opts.deadline = expired_deadline();
  const DetectabilityTable t = extract_cases(c, faults, opts);
  EXPECT_TRUE(t.truncated);
  EXPECT_NE(t.truncation_reason.find("wall-clock"), std::string::npos);
}

// --------------------------------------------------------------- simplex

TEST(Resilience, SimplexHonoursIterationAndTimeBudgets) {
  // A small LP the solver would normally finish: min x+y s.t. x+y >= 1.
  lp::LpProblem p;
  const int x = p.add_variable(0.0, 1.0, 1.0);
  const int y = p.add_variable(0.0, 1.0, 1.0);
  p.add_constraint(std::vector<lp::LpProblem::Term>{{x, 1.0}, {y, 1.0}},
                   lp::Relation::kGe, 1.0);

  lp::SolverOptions normal;
  const lp::LpResult ok = lp::solve(p, normal);
  EXPECT_EQ(ok.status, lp::Status::kOptimal);
  EXPECT_GT(ok.iterations, 0);

  lp::SolverOptions timed;
  timed.deadline = std::chrono::steady_clock::now() -
                   std::chrono::milliseconds(1);
  const lp::LpResult late = lp::solve(p, timed);
  EXPECT_EQ(late.status, lp::Status::kTimeLimit);
}

// ---------------------------------------------------------------- greedy

TEST(Resilience, GreedyClosesOutUnderExpiredDeadline) {
  const DetectabilityTable t = table_for("traffic", 2);
  GreedyOptions opts;
  opts.deadline = expired_deadline();
  GreedyStats stats;
  const auto cover = greedy_cover(t, opts, &stats);
  EXPECT_TRUE(stats.deadline_hit);
  EXPECT_GT(stats.single_bit_completions, 0);
  EXPECT_TRUE(covers_all(cover, t));
}

// ------------------------------------------------------- cascade / floor

TEST(Resilience, DuplicationFloorAlwaysCovers) {
  // With the deadline gone before the solve starts, greedy closes the
  // whole cover out with single-bit functions.
  for (const char* name : {"traffic", "link_rx", "seq_detect", "vending"}) {
    const DetectabilityTable t = table_for(name, 2);
    ResilienceReport res;
    const auto floor = select_parities_resilient(t, PipelineOptions{},
                                                 expired_deadline(), nullptr,
                                                 {}, res);
    EXPECT_EQ(res.solver_used, CascadeLevel::kDuplication) << name;
    EXPECT_TRUE(covers_all(floor, t)) << name;
    for (ParityFunc b : floor) {
      EXPECT_EQ(std::popcount(b), 1) << name;  // single-bit by construction
    }
  }
}

TEST(Resilience, CascadeFallsToFloorWhenWallClockGone) {
  const DetectabilityTable t = table_for("traffic", 2);
  PipelineOptions opts;
  ResilienceReport res;
  Algorithm1Stats stats;
  const auto cover =
      select_parities_resilient(t, opts, expired_deadline(), &stats, {}, res);
  EXPECT_TRUE(covers_all(cover, t));
  EXPECT_TRUE(res.degraded());
  EXPECT_EQ(res.solver_used, CascadeLevel::kDuplication);
  // Each level the run fell through leaves its event, in cascade order.
  ASSERT_EQ(res.events.size(), 2u);
  EXPECT_EQ(res.events[0].stage, Stage::kLp);
  EXPECT_EQ(res.events[0].detail,
            "wall-clock budget exhausted before the LP stage; falling back "
            "to greedy");
  EXPECT_EQ(res.events[1].stage, Stage::kGreedy);
  EXPECT_EQ(stats.final_q, static_cast<int>(cover.size()));
}

TEST(Resilience, GreedyRequestIsNotADegradation) {
  // A greedy request runs the level the LP falls back to; with no deadline
  // it is greedy_cover's own answer, delivered as asked, with no event.
  const DetectabilityTable t = table_for("traffic", 2);
  PipelineOptions opts;
  opts.solver = SolverKind::kGreedy;
  ResilienceReport res;
  Algorithm1Stats stats;
  const auto cover =
      select_parities_resilient(t, opts, Deadline{}, &stats, {}, res);
  EXPECT_TRUE(covers_all(cover, t));
  EXPECT_EQ(cover, greedy_cover(t, opts.algo.greedy));
  EXPECT_EQ(res.solver_requested, CascadeLevel::kGreedy);
  EXPECT_EQ(res.solver_used, CascadeLevel::kGreedy);
  EXPECT_TRUE(res.events.empty());
  EXPECT_FALSE(res.degraded());
  EXPECT_EQ(stats.final_q, static_cast<int>(cover.size()));
}

// -------------------------------------------------------------- pipeline

TEST(Resilience, UnbudgetedPipelineRunsClean) {
  PipelineOptions opts;
  opts.latency = 2;
  const PipelineReport rep = ced::run_pipeline(machine("traffic"), RunConfig::wrap(opts));
  EXPECT_TRUE(rep.resilience.status.ok());
  EXPECT_FALSE(rep.resilience.degraded());
  EXPECT_TRUE(rep.resilience.events.empty());
}

TEST(Resilience, PipelineSurvivesCaseStarvation) {
  PipelineOptions opts;
  opts.latency = 3;
  opts.budget.max_cases = 5;
  const PipelineReport rep = ced::run_pipeline(machine("link_rx"), RunConfig::wrap(opts));
  EXPECT_TRUE(rep.resilience.extraction_truncated);
  EXPECT_TRUE(rep.resilience.degraded());
  EXPECT_EQ(rep.resilience.status.code, StatusCode::kTruncated);
  EXPECT_FALSE(rep.resilience.events.empty());
  // The cover is still usable for the cases that were enumerated.
  EXPECT_GT(rep.num_trees, 0);
  EXPECT_GT(rep.num_cases, 0u);
}

TEST(Resilience, PipelineSurvivesLpStarvation) {
  PipelineOptions opts;
  opts.latency = 2;
  opts.budget.max_lp_iterations = 1;
  const PipelineReport rep = ced::run_pipeline(machine("vending"), RunConfig::wrap(opts));
  // Must terminate with a usable cover whatever path it took.
  EXPECT_GT(rep.num_trees, 0);
  // Rebuild the same table and check the cover against it.
  const DetectabilityTable t = table_for("vending", 2);
  EXPECT_TRUE(covers_all(rep.parities, t));
}

TEST(Resilience, PipelineSurvivesRoundingStarvation) {
  PipelineOptions opts;
  opts.latency = 2;
  opts.budget.max_rounding_attempts = 1;
  const PipelineReport rep = ced::run_pipeline(machine("traffic"), RunConfig::wrap(opts));
  EXPECT_GT(rep.num_trees, 0);
  const DetectabilityTable t = table_for("traffic", 2);
  EXPECT_TRUE(covers_all(rep.parities, t));
}

TEST(Resilience, PipelineSurvivesWallClockStarvation) {
  PipelineOptions opts;
  opts.latency = 3;
  opts.budget.wall_seconds = 1e-9;
  const PipelineReport rep = ced::run_pipeline(machine("link_rx"), RunConfig::wrap(opts));
  EXPECT_TRUE(rep.resilience.degraded());
  EXPECT_FALSE(rep.resilience.status.code == StatusCode::kInternal);
}

TEST(Resilience, GeneratedAdversarialFsmUnderTinyWallBudget) {
  // A generated (larger) machine under a budget far too small to finish.
  // Whatever the timing, the run must terminate with a classified status —
  // never an exception — and any degradation must be recorded.
  benchdata::SyntheticSpec spec;
  spec.name = "adversarial";
  spec.states = 24;
  spec.inputs = 4;
  spec.outputs = 4;
  spec.seed = 7;
  const fsm::Fsm f =
      fsm::Fsm::from_kiss(kiss::parse(benchdata::generate_kiss(spec)));
  PipelineOptions opts;
  opts.latency = 3;
  opts.budget.wall_seconds = 5e-4;
  const PipelineReport rep = ced::run_pipeline(f, RunConfig::wrap(opts));
  EXPECT_NE(rep.resilience.status.code, StatusCode::kInternal);
  EXPECT_NE(rep.resilience.status.code, StatusCode::kInvalidInput);
  if (!rep.resilience.degraded()) {
    EXPECT_TRUE(rep.resilience.status.ok());
  }
}

TEST(Resilience, SweepClassifiesBadLatencyAsInvalidInput) {
  const std::vector<int> ps{0};
  PipelineOptions opts;
  const auto reps = ced::run_latency_sweep(machine("traffic"), ps, RunConfig::wrap(opts));
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_EQ(reps[0].resilience.status.code, StatusCode::kInvalidInput);
  EXPECT_TRUE(reps[0].resilience.degraded());
}

TEST(Resilience, TruncatedSweepDisablesWarmStartShortcut) {
  // With a tiny case budget, every latency must be solved from its own
  // (truncated) table — the cross-latency assignment shortcut is unsound
  // on incomplete tables. All reports must still carry covers.
  const std::vector<int> ps{1, 2, 3};
  PipelineOptions opts;
  opts.budget.max_cases = 4;
  const auto reps = ced::run_latency_sweep(machine("link_rx"), ps, RunConfig::wrap(opts));
  ASSERT_EQ(reps.size(), 3u);
  for (const auto& r : reps) {
    EXPECT_TRUE(r.resilience.extraction_truncated);
    EXPECT_GT(r.num_trees, 0);
  }
}

// ----------------------------------------------------------- status type

TEST(Resilience, StatusAndResultBasics) {
  const Status ok = Status::make_ok();
  EXPECT_TRUE(ok.ok());
  const Status bad = Status::invalid_input(Stage::kParse, "boom");
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.to_text().find("boom"), std::string::npos);
  EXPECT_NE(bad.to_text().find("parse"), std::string::npos);

  Result<int> good = 7;
  ASSERT_TRUE(good);
  EXPECT_EQ(*good, 7);
  Result<int> err = bad;
  EXPECT_FALSE(err);
  EXPECT_EQ(err.status().code, StatusCode::kInvalidInput);
}

}  // namespace
}  // namespace ced::core
