#pragma once

// Shared helpers for the experiment harnesses: suite selection via argv,
// aligned table printing, and cached per-circuit pipeline sweeps.

#include <cstdio>
#include <string>
#include <vector>

#include "benchdata/suite.hpp"
#include "core/pipeline.hpp"

namespace ced::bench {

/// Parses harness arguments:
///   --quick            run only the small circuits (fast smoke mode)
///   --circuits=a,b,c   explicit circuit list
/// Default: the full 16-circuit Table 1 suite.
std::vector<std::string> circuits_from_args(int argc, char** argv);

/// True when --quick was passed.
bool quick_mode(int argc, char** argv);

/// Parses --threads=N (how many workers the harness may use). Returns 0
/// when absent or non-positive, meaning "auto": the CED_THREADS environment
/// variable if set, otherwise hardware concurrency.
int threads_from_args(int argc, char** argv);

/// Parses --store=DIR: directory of a crash-safe artifact store that caches
/// extraction results between harness runs. Empty (the default) = no store.
std::string store_from_args(int argc, char** argv);

/// Runs the shared-extraction latency sweep for one circuit with the given
/// latencies, printing progress to stderr. A non-empty `store_dir` routes
/// extraction through the artifact store there (resume enabled): warm
/// sweeps skip extraction, corrupt artifacts are quarantined and recomputed.
std::vector<core::PipelineReport> sweep_circuit(const std::string& name,
                                                const std::vector<int>& ps,
                                                core::PipelineOptions opts =
                                                    {},
                                                const std::string& store_dir =
                                                    {});

/// Runs sweep_circuit for every name concurrently — one circuit per worker
/// — and returns the per-circuit reports in input order, so harness tables
/// print identically at every thread count. When more than one worker runs,
/// the inner pipelines are forced serial (opts.exec.threads = 1) to avoid
/// oversubscribing the machine; with one worker the inner thread setting
/// passes through untouched.
std::vector<std::vector<core::PipelineReport>> sweep_suite(
    const std::vector<std::string>& names, const std::vector<int>& ps,
    core::PipelineOptions opts = {}, int threads = 0,
    const std::string& store_dir = {});

/// Percent change helper: 100 * (from - to) / from (positive = reduction).
double reduction_pct(double from, double to);

/// True when any report in the sweep ran degraded (budget valve fired or
/// the solver cascade fell back); sweep_circuit already printed details.
bool any_degraded(const std::vector<core::PipelineReport>& reps);

/// "*" when the report is degraded (append to table cells so a truncated
/// row is never mistaken for a full-quality number), "" otherwise.
const char* quality_tag(const core::PipelineReport& r);

}  // namespace ced::bench
