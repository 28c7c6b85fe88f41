#pragma once

// Shared helpers for the experiment harnesses: flag parsing, suite
// selection via argv and per-circuit pipeline sweeps.

#include <cstdio>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "benchdata/suite.hpp"
#include "core/pipeline.hpp"

namespace ced::bench {

/// The worker threads of every run whose results are quoted: the ledger's
/// sweeps, extractions and campaigns, and bench_saturation's sweeps.
/// Extraction without a store gives each thread a shard with its share of
/// the degrade threshold, so a table (and its q) depends on this count; a
/// fixed one keeps the results independent of the host.
inline constexpr int kLedgerThreads = 4;

/// The VALUE of the first `KEY=VALUE` argument (pass `key` without the
/// '='), or `fallback` when there is none.
std::string arg_value(int argc, char** argv, const char* key,
                      const char* fallback = "");

/// True when `flag` is one of the arguments, e.g. --quick (run only the
/// small circuits).
bool has_flag(int argc, char** argv, const char* flag);

/// True when every `--...` argument is one of `known`; otherwise prints
/// "error: unknown flag '<arg>' for <program>" and returns false (the
/// harness exits 2). An entry ending in '=' takes a value (`--circuits=`
/// matches `--circuits=s27`); any other entry must match exactly.
bool flags_known(int argc, char** argv, const char* program,
                 std::initializer_list<std::string_view> known);

/// Parses harness arguments:
///   --quick            run only the small circuits (fast smoke mode)
///   --circuits=a,b,c   explicit circuit list
/// Default: the full 16-circuit Table 1 suite.
std::vector<std::string> circuits_from_args(int argc, char** argv);

/// Parses --threads=N (how many workers the harness may use). Returns 0
/// when absent or non-positive, meaning "auto": the CED_THREADS environment
/// variable if set, otherwise hardware concurrency.
int threads_from_args(int argc, char** argv);

/// Runs the shared-extraction latency sweep for one circuit with the given
/// latencies, printing progress to stderr.
std::vector<core::PipelineReport> sweep_circuit(const std::string& name,
                                                const std::vector<int>& ps,
                                                core::PipelineOptions opts);

/// Percent change helper: 100 * (from - to) / from (positive = reduction).
double reduction_pct(double from, double to);

}  // namespace ced::bench
