#pragma once

// Shared helpers for the experiment harnesses: suite selection via argv
// and per-circuit pipeline sweeps. Flags are read through flags.hpp, the
// parser the command-line tools share.

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "benchdata/suite.hpp"
#include "core/pipeline.hpp"
#include "flags.hpp"

namespace ced::bench {

/// The worker threads of every run whose results are quoted: the ledger's
/// sweeps, extractions and campaigns, and bench_saturation's sweeps.
/// Extraction without a store gives each thread a shard with its share of
/// the degrade threshold, so a table (and its q) depends on this count; a
/// fixed one keeps the results independent of the host.
inline constexpr int kLedgerThreads = 4;

/// Parses harness arguments:
///   --quick            run only the small circuits (fast smoke mode)
///   --circuits=a,b,c   explicit circuit list
/// Default: the full 16-circuit Table 1 suite.
std::vector<std::string> circuits_from_args(int argc, char** argv);

/// The flags circuits_from_args reads, for cli::reject_unknown_flags.
inline constexpr std::string_view kSuiteFlags[] = {"--quick", "--circuits="};

/// Runs the shared-extraction latency sweep for one circuit with the given
/// latencies, printing progress to stderr.
std::vector<core::PipelineReport> sweep_circuit(const std::string& name,
                                                const std::vector<int>& ps,
                                                core::PipelineOptions opts);

/// Percent change helper: 100 * (from - to) / from (positive = reduction).
double reduction_pct(double from, double to);

}  // namespace ced::bench
