// Tests for the observability layer (src/obs): metric semantics, shard
// folding under worker threads, explicit span parenting across
// parallel_for, deterministic exporters (golden strings), the StageClock
// telescoping invariant, RunConfig builder validation + digest stability,
// and the load-bearing promise of the whole layer: q and the selected
// parities are byte-identical with observability on or off, at any thread
// count.

#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "benchdata/handwritten.hpp"
#include "common/parallel.hpp"
#include "core/run.hpp"
#include "kiss/kiss.hpp"
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
      "    \"g\": 1.500000\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"h\": {\"edges\": [1.000000, 2.000000], \"counts\": [1, 0, 1], "
      "\"sum\": 3.500000, \"count\": 2}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(obs::metrics_json(golden_snapshot()), expected);
}

TEST(Export, PrometheusTextGolden) {
  const std::string expected =
      "# TYPE c counter\n"
      "c 2\n"
      "# TYPE g gauge\n"
      "g 1.500000\n"
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 1\n"
      "h_bucket{le=\"2\"} 1\n"
      "h_bucket{le=\"+Inf\"} 2\n"
      "h_sum 3.500000\n"
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
      "\"start_s\": 0.000000, \"dur_s\": 2.000000, \"attrs\": {}},\n"
      "    {\"id\": 2, \"parent\": 1, \"name\": \"solve\", "
      "\"start_s\": 0.500000, \"dur_s\": 1.000000, \"attrs\": "
      "{\"q\": \"3\"}}\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(obs::trace_json(golden_spans(), 3), expected);
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
    // The extraction shards' simulator counters and the trace gauge.
    EXPECT_GT(snap.counters.at("ced_sim_cone_rows_total"), 0u);
    EXPECT_GT(snap.counters.at("ced_sim_cone_gates_total"), 0u);
    EXPECT_GT(snap.gauges.at(sim::kGoldenTraceBytesGauge), 0.0);
    // The extraction workers' case-set counters.
    for (const char* name :
         {"ced_extract_case_inserts_total", "ced_extract_cases_dominated_total",
          "ced_extract_subset_probes_total", "ced_extract_compactions_total",
          "ced_extract_cases_compacted_total",
          "ced_extract_step_classes_total"}) {
      ASSERT_TRUE(snap.counters.contains(name)) << name;
      EXPECT_GT(snap.counters.at(name), 0u) << name;
    }
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
    EXPECT_GT(snap.gauges.at(sim::kGoldenTraceBytesGauge), 0.0);
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
