// Sequential demonstration of the bounded-latency guarantee: builds the
// full Fig. 3 architecture for a suite circuit, injects every stuck-at
// fault, runs the exhaustive campaign engine, and prints the distribution
// of worst-case detection latencies (how many activation scenarios are
// caught within 1, 2, ... p transitions on every input path that follows),
// confirming none exceeds the bound.
//
// Usage: verify_detection [suite-circuit-name] [latency]   (default: dk16 2)

#include <cstdio>
#include <string>

#include "benchdata/suite.hpp"
#include "core/run.hpp"
#include "sim/campaign.hpp"

int main(int argc, char** argv) {
  using namespace ced;
  const std::string name = argc > 1 ? argv[1] : "dk16";
  const int p = argc > 2 ? std::atoi(argv[2]) : 2;

  const fsm::Fsm machine = benchdata::suite_fsm(name);
  const Result<RunConfig> cfg = RunConfig::Builder().latency(p).build();
  if (!cfg) {
    std::fprintf(stderr, "bad config: %s\n", cfg.status().to_text().c_str());
    return 2;
  }
  const core::PipelineOptions& opts = cfg->options();
  const core::PipelineReport rep = ced::run_pipeline(machine, *cfg);
  std::printf("%s at latency bound p=%d: %d parity trees, CED area %.1f\n",
              name.c_str(), p, rep.num_trees, rep.ced_area);

  const core::Design design = core::derive_design(machine, opts);

  // Persistent stuck-at campaign: every activation scenario (fault,
  // reachable state, input) is judged by its slowest input path, and
  // detection past the bound counts as a violation (horizon == p, so
  // detected_late cannot occur and any slower episode lands in
  // silent_escape).
  sim::CampaignOptions copts;
  copts.latency_bound = p;
  copts.horizon = p;
  const sim::CampaignReport report =
      sim::run_campaign(design.circuit, rep.hw, design.faults, copts);
  const std::size_t violations =
      static_cast<std::size_t>(report.detected_late + report.silent_escape);

  std::printf("\nworst-case detection latency per activation scenario "
              "(transitions from activation):\n");
  const std::uint64_t total = report.detected_in_bound;
  for (int l = 1; l <= p; ++l) {
    const std::uint64_t h = report.histogram[static_cast<std::size_t>(l - 1)];
    std::printf("  %d cycle%s: %8zu (%.1f%%)\n", l, l == 1 ? " " : "s",
                static_cast<std::size_t>(h),
                total ? 100.0 * static_cast<double>(h) /
                            static_cast<double>(total)
                      : 0);
  }
  std::printf("violations of the bound: %zu -> %s\n", violations,
              violations == 0 ? "GUARANTEE HOLDS" : "FAILED");
  return violations == 0 ? 0 : 1;
}
