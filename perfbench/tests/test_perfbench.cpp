// The benchmark's own tests: the percentile rule, the ratio helper, the
// fastest-time helpers, and a seconds-scale smoke run of every workload
// (untraced and traced).
//
//   cmake --build .bench_build/perfbench --target perfbench_test
//   (cd .bench_build/perfbench && ./perfbench_test)

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void test_percentile_rule() {
  using namespace perfbench;
  expect(samples_needed(0.99) == 1000, "p99 needs 1000 samples");
  expect(samples_needed(0.90) == 100, "p90 needs 100 samples");
  expect(samples_beyond(1000, 0.99) == kTailSamples, "1000 -> 10 beyond p99");
  expect(samples_beyond(999, 0.99) < kTailSamples, "999 -> too few for p99");
  expect(samples_beyond(100, 0.50) == 50, "50 beyond the median of 100");

  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  expect(percentile(v, 0.99) == 990, "p99 of 1..1000 is 990");
  expect(percentile(v, 0.90) == 900, "p90 of 1..1000 is 900");
  expect(percentile({5}, 0.99) == 5, "a single sample is every percentile");
  expect(percentile({}, 0.5) == 0, "empty percentile is 0");
  expect(median({3, 1, 2}) == 2, "odd median");
  expect(median({4, 1, 3, 2}) == 2.5, "even median");
}

void test_ratio() {
  using perfbench::Ratio;
  const Ratio r{3, 4};
  expect(r.value() == 0.75, "3 of 4 is 0.75");
  expect(r.base == 4, "the ratio keeps its base");
  expect(Ratio{0, 0}.value() == 0, "no attempts reads 0");
}

void test_fastest() {
  const std::vector<perfbench::OpSample> p = {
      {"a", 2.0, 10}, {"b", 1.0, 30}, {"a", 1.5, 12}, {"b", 3.0, 20}};
  expect(perfbench::fastest_seconds(p).at("a") == 1.5, "a's fastest is 1.5");
  expect(perfbench::fastest_pass_seconds(p) == 2.5,
         "run_s sums each operation's fastest time");
  expect(perfbench::least_peak_mb(p) == 20,
         "peak is the largest of each operation's least peak");
}

perfbench::Config smoke_config(const std::string& workload, bool trace) {
  perfbench::Config cfg;
  cfg.workload = workload;
  cfg.seed = 7;
  cfg.seconds = 0.5;
  cfg.trace = trace;
  cfg.smoke = true;
  cfg.work_dir = "perfbench-test-work/" + workload;
  cfg.trace_dir = "perfbench-test-work/trace";
  cfg.pins_path = "perfbench-test-work/no-pins.txt";
  // A fresh store per run, as perfbench's main gives every run.
  std::filesystem::remove_all(cfg.work_dir);
  std::filesystem::create_directories(cfg.work_dir);
  return cfg;
}

perfbench::Outcome run(const perfbench::Config& cfg) {
  if (cfg.workload == "protect_cold") return perfbench::run_protect_cold(cfg);
  if (cfg.workload == "protect_warm") return perfbench::run_protect_warm(cfg);
  return perfbench::run_campaign_workload(cfg);
}

void test_smoke(const std::string& workload) {
  const std::vector<std::string> end_to_end = {"setup_s", "run_s", "s1488_s",
                                               "peak_rss_mb"};
  const perfbench::Outcome out = run(smoke_config(workload, false));
  for (const std::string& p : out.problems) {
    std::fprintf(stderr, "  %s: %s\n", workload.c_str(), p.c_str());
  }
  expect(out.correct(), workload + " smoke run is correct");
  expect(out.attempted() > 0, workload + " attempted something");
  expect(out.metrics.size() == end_to_end.size(),
         workload + " prints exactly the end-to-end metrics");
  for (const std::string& m : end_to_end) {
    const auto it = out.metrics.find(m);
    expect(it != out.metrics.end() && it->second.value > 0,
           workload + " reports a nonzero " + m);
  }
}

void test_traced_smoke(const std::string& workload) {
  const std::vector<std::string> layers = {
      "fsm",   "sim", "extract",  "condense", "solve", "lp",
      "ced",   "store", "campaign", "serve", "trace"};
  const perfbench::Outcome out = run(smoke_config(workload, true));
  for (const std::string& p : out.problems) {
    std::fprintf(stderr, "  %s traced: %s\n", workload.c_str(), p.c_str());
  }
  expect(out.correct(), workload + " traced smoke run is correct");
  for (const std::string& layer : layers) {
    bool found = false;
    for (const auto& [name, _] : out.metrics) {
      found = found || name.rfind(layer + ".", 0) == 0;
    }
    expect(found, workload + " traced run reports layer " + layer);
  }
  expect(out.metrics.count("trace.overhead_s") == 1,
         workload + " traced run states its overhead");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_ratio();
  test_fastest();
  for (const char* w : {"protect_cold", "protect_warm", "campaign"}) {
    test_smoke(w);
    test_traced_smoke(w);
  }
  std::filesystem::remove_all("perfbench-test-work");
  if (g_failures == 0) std::printf("perfbench_test: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
