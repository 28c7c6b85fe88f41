// Tests for the observability layer (src/obs): metric semantics, shard
// folding under worker threads, explicit span parenting across
// parallel_for, deterministic exporters (golden strings), the StageClock
// telescoping invariant, RunConfig builder validation + digest stability,
// and the load-bearing promise of the whole layer: q and the selected
// parities are byte-identical with observability on or off, at any thread
// count.

#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "benchdata/handwritten.hpp"
#include "benchdata/suite.hpp"
#include "common/parallel.hpp"
#include "core/extract.hpp"
#include "core/run.hpp"
#include "kiss/kiss.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/campaign.hpp"
#include "sim/fault_sim.hpp"

namespace ced {
namespace {

// ------------------------------------------------------------- metrics

TEST(Metrics, HistogramEdgesAreInclusiveUpperBounds) {
  obs::Histogram h({1.0, 2.0, 5.0});
  h.observe(1.0);  // == edge: lands in the first bucket (le semantics)
  h.observe(1.5);
  h.observe(5.0);
  h.observe(7.0);  // above every edge: +Inf bucket
  ASSERT_EQ(h.counts.size(), 4u);
  EXPECT_EQ(h.counts[0], 1u);
  EXPECT_EQ(h.counts[1], 1u);
  EXPECT_EQ(h.counts[2], 1u);
  EXPECT_EQ(h.counts[3], 1u);
  EXPECT_EQ(h.total, 4u);
  EXPECT_DOUBLE_EQ(h.sum, 14.5);
}

TEST(Metrics, NullRegistryShardIsANoOp) {
  obs::MetricsShard shard;  // no registry
  EXPECT_FALSE(shard.enabled());
  shard.add("ced_whatever_total", 7);
  shard.observe("ced_whatever_hist", 1.0);
  shard.flush();  // must not crash
}

TEST(Metrics, ShardsFoldExactlyUnderFourWorkers) {
  obs::MetricsRegistry reg;
  reg.define_histogram("work_items", {10.0, 100.0});
  constexpr std::size_t kItems = 200;
  // One shard per work item, folded on scope exit from four pool threads
  // concurrently: every count must land, none may be double-folded.
  parallel_for(4, kItems, [&](std::size_t i) {
    obs::MetricsShard shard(&reg);
    shard.add("items_total");
    shard.add("units_total", 3);
    shard.observe("work_items", static_cast<double>(i));
  });
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("items_total"), kItems);
  EXPECT_EQ(snap.counters.at("units_total"), 3 * kItems);
  const obs::Histogram& h = snap.histograms.at("work_items");
  EXPECT_EQ(h.total, kItems);
  ASSERT_EQ(h.counts.size(), 3u);
  EXPECT_EQ(h.counts[0], 11u);   // 0..10 inclusive
  EXPECT_EQ(h.counts[1], 90u);   // 11..100
  EXPECT_EQ(h.counts[2], 99u);   // 101..199
}

TEST(Metrics, WeightedObservationsEqualRepeatedOnes) {
  // A count argument folds n equal observations into one entry: the
  // snapshot (bucket counts, total, sum) equals n single observations,
  // through the registry and through a shard alike.
  const std::vector<std::pair<double, std::uint64_t>> samples = {
      {1.0, 20000}, {2.0, 76}, {0.5, 3}, {7.0, 2}};
  obs::MetricsRegistry repeated;
  obs::MetricsRegistry weighted;
  {
    obs::MetricsShard shard(&weighted);
    for (const auto& [v, n] : samples) {
      for (std::uint64_t i = 0; i < n; ++i) repeated.observe("h", v);
      shard.observe("h", v, n);
    }
    weighted.observe("direct", 2.5, 4);
  }
  for (int i = 0; i < 4; ++i) repeated.observe("direct", 2.5);
  const obs::MetricsSnapshot a = repeated.snapshot();
  const obs::MetricsSnapshot b = weighted.snapshot();
  for (const char* name : {"h", "direct"}) {
    SCOPED_TRACE(name);
    const obs::Histogram& ha = a.histograms.at(name);
    const obs::Histogram& hb = b.histograms.at(name);
    EXPECT_EQ(ha.edges, hb.edges);
    EXPECT_EQ(ha.counts, hb.counts);
    EXPECT_EQ(ha.total, hb.total);
    EXPECT_EQ(ha.sum, hb.sum);
  }
  EXPECT_EQ(b.histograms.at("h").total, 20081u);
  EXPECT_EQ(obs::metrics_json(a), obs::metrics_json(b));
}

// --------------------------------------------------------------- spans

TEST(Trace, SpansNestExplicitlyAcrossParallelFor) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  const obs::Sinks sinks{&tracer, &metrics, 0};
  {
    obs::ScopedSpan stage(sinks, "stage");
    ASSERT_NE(stage.id(), 0u);
    // Worker spans on pool threads parent under the stage purely because
    // the stage id was passed down — no thread-local ambient span.
    const obs::Sinks worker_sinks = sinks.under(stage.id());
    parallel_for(4, 8, [&](std::size_t i) {
      obs::ScopedSpan worker(worker_sinks, "worker");
      worker.attr("shard", static_cast<std::uint64_t>(i));
    });
  }
  const std::vector<obs::SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 9u);
  const obs::SpanRecord& stage = spans.front();  // earliest start
  EXPECT_EQ(stage.name, "stage");
  EXPECT_EQ(stage.parent, 0u);
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].name, "worker");
    EXPECT_EQ(spans[i].parent, stage.id);
    ASSERT_EQ(spans[i].attrs.size(), 1u);
    EXPECT_EQ(spans[i].attrs[0].first, "shard");
  }
}

TEST(Trace, RingBufferDropsOldestAndCounts) {
  obs::Tracer tracer(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    obs::ScopedSpan span(&tracer, "s" + std::to_string(i));
  }
  EXPECT_EQ(tracer.snapshot().size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
}

TEST(Trace, StageClockLapsTelescopeToTotal) {
  obs::StageClock clock;
  double sum = 0.0;
  for (int stage = 0; stage < 5; ++stage) sum += clock.lap();
  // One shared clock sample per boundary: the laps telescope, so their
  // sum IS the total — exactly, not approximately.
  EXPECT_DOUBLE_EQ(sum, clock.total());
}

// ----------------------------------------------------------- exporters

obs::MetricsSnapshot golden_snapshot() {
  obs::MetricsRegistry reg;
  reg.define_histogram("h", {1.0, 2.0});
  reg.add("c", 2);
  reg.set_gauge("g", 1.5);
  reg.observe("h", 0.5);
  reg.observe("h", 3.0);
  return reg.snapshot();
}

TEST(Export, MetricsJsonGolden) {
  const std::string expected =
      "{\n"
      "  \"counters\": {\n"
      "    \"c\": 2\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"g\": 1.5\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"h\": {\"edges\": [1, 2], \"counts\": [1, 0, 1], "
      "\"sum\": 3.5, \"count\": 2}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(obs::metrics_json(golden_snapshot()), expected);
}

TEST(Export, PrometheusTextGolden) {
  const std::string expected =
      "# TYPE c counter\n"
      "c 2\n"
      "# TYPE g gauge\n"
      "g 1.5\n"
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 1\n"
      "h_bucket{le=\"2\"} 1\n"
      "h_bucket{le=\"+Inf\"} 2\n"
      "h_sum 3.5\n"
      "h_count 2\n";
  EXPECT_EQ(obs::prometheus_text(golden_snapshot()), expected);
}

std::vector<obs::SpanRecord> golden_spans() {
  obs::SpanRecord root;
  root.id = 1;
  root.name = "pipeline";
  root.start_s = 0.0;
  root.dur_s = 2.0;
  obs::SpanRecord child;
  child.id = 2;
  child.parent = 1;
  child.name = "solve";
  child.start_s = 0.5;
  child.dur_s = 1.0;
  child.attrs.emplace_back("q", "3");
  return {root, child};
}

TEST(Export, TraceJsonGolden) {
  const std::string expected =
      "{\n"
      "  \"dropped\": 3,\n"
      "  \"spans\": [\n"
      "    {\"id\": 1, \"parent\": 0, \"name\": \"pipeline\", "
      "\"start_s\": 0, \"dur_s\": 2, \"attrs\": {}},\n"
      "    {\"id\": 2, \"parent\": 1, \"name\": \"solve\", "
      "\"start_s\": 0.5, \"dur_s\": 1, \"attrs\": "
      "{\"q\": \"3\"}}\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(obs::trace_json(golden_spans(), 3), expected);
}

TEST(Export, JsonNumberKeepsItsDigits) {
  // The shortest text that reads back as the same double: short span
  // sums keep every digit instead of rounding to six decimals.
  EXPECT_EQ(obs::json_number(1.5), "1.5");
  EXPECT_EQ(obs::json_number(3.0), "3");
  EXPECT_EQ(obs::json_number(0.0), "0");
  EXPECT_EQ(obs::json_number(0.000013), "1.3e-05");
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::quiet_NaN()),
            "null");
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::infinity()),
            "null");
  for (const double v : {0.1, 1.0 / 3.0, 2.5e-7, 123456.789, -42.0625}) {
    EXPECT_EQ(std::strtod(obs::json_number(v).c_str(), nullptr), v) << v;
  }
}

TEST(Export, ExplainTreeGolden) {
  const std::string expected =
      "    2.000s 100.0%  pipeline\n"
      "    1.000s  50.0%    solve  q=3\n";
  EXPECT_EQ(obs::explain_tree(golden_spans(), {}), expected);
}

// ----------------------------------------------- pipeline determinism

fsm::Fsm machine(const std::string& name) {
  return fsm::Fsm::from_kiss(kiss::parse(benchdata::handwritten_kiss(name)));
}

core::PipelineReport run_observed(const fsm::Fsm& f, int latency,
                                  int threads, obs::Tracer* tracer,
                                  obs::MetricsRegistry* metrics) {
  RunConfig::Builder b;
  b.latency(latency).threads(threads);
  if (tracer != nullptr || metrics != nullptr) {
    b.observe({tracer, metrics, 0});
  }
  const Result<RunConfig> cfg = b.build();
  EXPECT_TRUE(cfg.has_value());
  return ced::run_pipeline(f, *cfg);
}

TEST(ObsDeterminism, ResultsAreByteIdenticalWithObsOnOrOff) {
  // p=3: link_rx's smallest bound whose merge compaction removes cases.
  const fsm::Fsm f = machine("link_rx");
  const core::PipelineReport baseline =
      run_observed(f, 3, 1, nullptr, nullptr);
  for (const int threads : {1, 4}) {
    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    const core::PipelineReport plain =
        run_observed(f, 3, threads, nullptr, nullptr);
    const core::PipelineReport observed =
        run_observed(f, 3, threads, &tracer, &metrics);
    EXPECT_EQ(plain.parities, baseline.parities) << "threads=" << threads;
    EXPECT_EQ(observed.parities, baseline.parities) << "threads=" << threads;
    EXPECT_EQ(observed.num_trees, baseline.num_trees);

    // The observed run actually recorded something sensible.
    const std::vector<obs::SpanRecord> spans = tracer.snapshot();
    ASSERT_FALSE(spans.empty());
    EXPECT_EQ(spans.front().name, "pipeline");
    // The solve stage's sub-spans, by the name of their parent: the trial
    // screens under solve-q, the repairs under solve-q and post-optimize.
    std::map<std::uint64_t, std::string> name_of;
    for (const obs::SpanRecord& s : spans) name_of[s.id] = s.name;
    std::set<std::string> seen;
    for (const obs::SpanRecord& s : spans) {
      const auto parent = name_of.find(s.parent);
      seen.insert(parent == name_of.end() ? s.name
                                          : parent->second + "/" + s.name);
    }
    for (const char* edge : {"pipeline/solve", "solve-q/screen",
                             "solve-q/repair", "post-optimize/repair"}) {
      EXPECT_TRUE(seen.contains(edge)) << edge << " threads=" << threads;
    }
    const obs::MetricsSnapshot snap = metrics.snapshot();
    EXPECT_GT(snap.counters.at("ced_extract_cases_total"), 0u);
    EXPECT_GT(snap.counters.at("ced_solve_kernel_builds_total"), 0u);
    // One checker: a predictor per tree, nothing to reuse.
    EXPECT_EQ(snap.counters.at("ced_checker_predictors_total"),
              observed.parities.size());
    EXPECT_EQ(snap.counters.at("ced_checker_reuses_total"), 0u);
    // The extraction shards' simulator counters and the trace gauge.
    EXPECT_GT(snap.counters.at("ced_sim_cone_rows_total"), 0u);
    EXPECT_GT(snap.counters.at("ced_sim_cone_gates_total"), 0u);
    EXPECT_GT(snap.counters.at("ced_sim_dormant_rows_total"), 0u);
    EXPECT_LT(snap.counters.at("ced_sim_dormant_rows_total"),
              snap.counters.at("ced_sim_cone_rows_total"));
    EXPECT_GT(snap.gauges.at(sim::kGoldenTraceBytesGauge), 0.0);
    // The extraction workers' case-set counters.
    for (const char* name :
         {"ced_extract_case_inserts_total", "ced_extract_cases_dominated_total",
          "ced_extract_subset_probes_total", "ced_extract_compactions_total",
          "ced_extract_cases_compacted_total",
          "ced_extract_step_classes_total",
          "ced_extract_classifications_total"}) {
      ASSERT_TRUE(snap.counters.contains(name)) << name;
      EXPECT_GT(snap.counters.at(name), 0u) << name;
    }
    // Each classification forms at least one class; memo hits re-read them.
    EXPECT_GE(snap.counters.at("ced_extract_step_classes_total"),
              snap.counters.at("ced_extract_classifications_total"));
    // One timed observation per compaction pass, the merge's included.
    ASSERT_TRUE(snap.histograms.contains("ced_extract_compaction_seconds"));
    EXPECT_EQ(snap.histograms.at("ced_extract_compaction_seconds").total,
              snap.counters.at("ced_extract_compactions_total"));
  }
}

TEST(ObsDeterminism, ExtractionTimersAreWriteOnly) {
  // dk14's machine-level p=3 table under a 4000-case degrade threshold
  // (Extract.DegradedTablesArePinnedAtOneAndFourThreads) degrades: the
  // compaction and degrade histograms get one observation per pass, and
  // the tables equal an unobserved run's, statistics and flags included.
  const core::PipelineOptions po;
  const core::Design d = core::derive_design(benchdata::suite_fsm("dk14"), po);
  core::ExtractOptions opts;
  opts.latency = 3;
  opts.semantics = core::DiffSemantics::kMachineLevel;
  opts.degrade_threshold = 4000;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    opts.threads = threads;
    opts.obs = {};
    const auto plain = core::extract_cases_multi(d.circuit, d.faults, opts);
    obs::MetricsRegistry metrics;
    opts.obs = {nullptr, &metrics, 0};
    const auto observed =
        core::extract_cases_multi(d.circuit, d.faults, opts);
    ASSERT_EQ(observed.size(), plain.size());
    for (std::size_t t = 0; t < plain.size(); ++t) {
      EXPECT_EQ(observed[t].cases, plain[t].cases);
      EXPECT_EQ(observed[t].strengthened, plain[t].strengthened);
      EXPECT_EQ(observed[t].num_activations, plain[t].num_activations);
      EXPECT_EQ(observed[t].num_paths, plain[t].num_paths);
      EXPECT_EQ(observed[t].num_loop_truncations,
                plain[t].num_loop_truncations);
    }
    EXPECT_TRUE(observed.back().strengthened);
    const obs::MetricsSnapshot snap = metrics.snapshot();
    EXPECT_EQ(snap.histograms.at("ced_extract_compaction_seconds").total,
              snap.counters.at("ced_extract_compactions_total"));
    // Every degrade step compacts once.
    const std::uint64_t steps =
        snap.histograms.at("ced_extract_degrade_seconds").total;
    EXPECT_GT(steps, 0u);
    EXPECT_LT(steps, snap.counters.at("ced_extract_compactions_total"));
  }
}

TEST(ObsDeterminism, CheckerCountersFollowTheSweepsRepeats) {
  // tav impl at p=1..3 picks two different schemes, then repeats the
  // second. A repeated scheme reuses the previous checker and minimizes no
  // predictor; a new one minimizes one predictor per tree. The counters and
  // the ced-synth spans say so, and the schemes equal an unobserved sweep's.
  const fsm::Fsm f = benchdata::suite_fsm("tav");
  const std::vector<int> ps{1, 2, 3};
  for (const int threads : {1, 4}) {
    const auto plain = ced::run_latency_sweep(
        f, ps, *RunConfig::Builder().threads(threads).build());
    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    const auto reps = ced::run_latency_sweep(
        f, ps,
        *RunConfig::Builder()
             .threads(threads)
             .observe({&tracer, &metrics, 0})
             .build());
    ASSERT_EQ(reps.size(), ps.size());
    std::uint64_t predictors = 0, reuses = 0;
    std::vector<std::string> reused;
    for (std::size_t i = 0; i < reps.size(); ++i) {
      EXPECT_EQ(reps[i].parities, plain[i].parities) << "threads=" << threads;
      const bool repeat = i > 0 && reps[i].parities == reps[i - 1].parities;
      reuses += repeat ? 1 : 0;
      predictors += repeat ? 0 : reps[i].parities.size();
      reused.push_back(repeat ? "yes" : "no");
    }
    EXPECT_EQ(reuses, 1u) << "threads=" << threads;
    const obs::MetricsSnapshot snap = metrics.snapshot();
    EXPECT_EQ(snap.counters.at("ced_checker_predictors_total"), predictors);
    EXPECT_EQ(snap.counters.at("ced_checker_reuses_total"), reuses);
    std::vector<std::string> span_reused;
    std::uint64_t span_predictors = 0;
    for (const obs::SpanRecord& s : tracer.snapshot()) {
      if (s.name != "ced-synth") continue;
      for (const auto& [key, value] : s.attrs) {
        if (key == "reused") span_reused.push_back(value);
        if (key == "predictors") span_predictors += std::stoull(value);
      }
    }
    EXPECT_EQ(span_reused, reused) << "threads=" << threads;
    EXPECT_EQ(span_predictors, predictors) << "threads=" << threads;
  }
}

TEST(ObsDeterminism, CampaignVerdictsAreIdenticalWithObsOnOrOff) {
  const fsm::Fsm f = machine("link_rx");
  const core::PipelineReport rep = run_observed(f, 2, 1, nullptr, nullptr);
  const core::Design d = core::derive_design(f, core::PipelineOptions{});
  const fsm::FsmCircuit& circuit = d.circuit;
  const auto& faults = d.faults;
  const core::CedHardware& hw = rep.hw;
  for (const int threads : {1, 4}) {
    sim::CampaignOptions co;
    co.latency_bound = 2;
    co.threads = threads;
    const sim::CampaignReport plain =
        sim::run_campaign(circuit, hw, faults, co);
    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    co.obs = {&tracer, &metrics, 0};
    const sim::CampaignReport observed =
        sim::run_campaign(circuit, hw, faults, co);
    EXPECT_TRUE(plain.verdicts == observed.verdicts) << "threads=" << threads;
    EXPECT_GT(plain.activations, 0u);
    const obs::MetricsSnapshot snap = metrics.snapshot();
    EXPECT_GT(snap.counters.at("ced_sim_cone_rows_total"), 0u);
    EXPECT_GT(snap.counters.at("ced_sim_cone_gates_total"), 0u);
    EXPECT_GT(snap.counters.at("ced_sim_dormant_rows_total"), 0u);
    EXPECT_GT(snap.counters.at("ced_sim_checker_cone_batches_total"), 0u);
    EXPECT_GT(snap.gauges.at(sim::kGoldenTraceBytesGauge), 0.0);
    // One weighted observation per latency bucket still counts every
    // detected episode once.
    EXPECT_EQ(snap.histograms.at("ced_campaign_latency").total,
              observed.detected_in_bound + observed.detected_late);
  }
}

// ------------------------------------------------- RunConfig contract

TEST(RunConfig, BuilderRejectsOutOfContractKnobs) {
  const auto bad_latency = RunConfig::Builder().latency(0).build();
  ASSERT_FALSE(bad_latency.has_value());
  EXPECT_EQ(bad_latency.status().code, StatusCode::kInvalidInput);
  EXPECT_NE(bad_latency.status().message.find("latency"), std::string::npos);

  const auto bad_threads = RunConfig::Builder().threads(-2).build();
  ASSERT_FALSE(bad_threads.has_value());
  EXPECT_NE(bad_threads.status().message.find("threads"), std::string::npos);

  const auto bad_resume = RunConfig::Builder().resume(true).build();
  ASSERT_FALSE(bad_resume.has_value());
  EXPECT_NE(bad_resume.status().message.find("archive"), std::string::npos);

  // NaN would pass a `< 0` check and silently mean "no limit".
  for (const double wall : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()}) {
    const auto bad_wall = RunConfig::Builder().wall_seconds(wall).build();
    ASSERT_FALSE(bad_wall.has_value()) << wall;
    EXPECT_EQ(bad_wall.status().code, StatusCode::kInvalidInput);
    EXPECT_NE(bad_wall.status().message.find("wall_seconds"),
              std::string::npos);
  }
  EXPECT_TRUE(RunConfig::Builder().wall_seconds(1e10).build().has_value());

  EXPECT_TRUE(RunConfig::Builder().build().has_value());
}

TEST(RunConfig, DigestCoversResultShapingKnobsOnly) {
  const RunConfig base = *RunConfig::Builder().latency(2).build();
  const RunConfig same = *RunConfig::Builder().latency(2).build();
  EXPECT_EQ(base.digest(), same.digest());
  EXPECT_EQ(base.digest().size(), 32u);

  // Result-shaping knobs change the digest...
  const RunConfig other_latency = *RunConfig::Builder().latency(3).build();
  EXPECT_NE(base.digest(), other_latency.digest());
  const RunConfig other_solver =
      *RunConfig::Builder().latency(2).solver(core::SolverKind::kGreedy)
           .build();
  EXPECT_NE(base.digest(), other_solver.digest());

  // ...pure execution knobs (threads, obs sinks) deliberately do not.
  const RunConfig threaded = *RunConfig::Builder().latency(2).threads(7)
                                  .build();
  EXPECT_EQ(base.digest(), threaded.digest());
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  const RunConfig observed = *RunConfig::Builder()
                                  .latency(2)
                                  .observe({&tracer, &metrics, 0})
                                  .build();
  EXPECT_EQ(base.digest(), observed.digest());
}

}  // namespace
}  // namespace ced
