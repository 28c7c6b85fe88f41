#pragma once

// Shared pieces of the repository benchmark: run configuration, the run
// outcome (operations, checks, metrics), the per-layer counters of a traced
// pass, and the layered protect sweep that both the output checks and the
// traced runs use. See perfbench/README.md for the workloads and metrics.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/parity_synth.hpp"
#include "core/run.hpp"
#include "fsm/fsm.hpp"
#include "obs/trace.hpp"

namespace ced::storage {
class ArtifactStore;
}

namespace perfbench {

/// Pipeline and campaign worker threads, and serve probe client connections.
inline constexpr int kThreads = 4;

struct Config {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Seconds-scale variant for the benchmark's own tests: a few small
  /// circuits, no pins.
  bool smoke = false;
  std::string work_dir;   ///< per-run scratch (stores, sockets)
  std::string trace_dir;  ///< where a traced run writes spans and layers
  std::string pins_path;
  bool write_pins = false;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// Operations attempted and failed, run-level problems, and the metrics.
class Outcome {
 public:
  /// Registers one operation and returns its index.
  std::size_t op() {
    op_failed_.push_back(false);
    return op_failed_.size() - 1;
  }
  /// Marks operation `i` failed (it errored, was refused, degraded, or its
  /// output failed a check).
  void fail(std::size_t i, const std::string& why);
  /// A failed check that belongs to no single operation.
  void problem(const std::string& why);

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }

  std::uint64_t attempted() const { return op_failed_.size(); }
  std::uint64_t failed() const;
  bool correct() const { return failed() == 0 && problems.empty(); }

  std::map<std::string, Metric> metrics;
  std::vector<std::string> problems;
  /// Observed values of the pinned results (key -> value), see check_pins.
  std::map<std::string, std::string> observed_pins;

 private:
  std::vector<bool> op_failed_;
};

/// Counters of one traced pass, per layer. A layer appears in `layers`
/// once the pass called into it; only those layers' metrics are emitted.
struct LayerCounts {
  std::set<std::string> layers;

  std::uint64_t fsm_gates = 0;
  std::uint64_t sim_rows = 0;
  std::uint64_t extract_cases = 0, extract_activations = 0, extract_paths = 0,
                extract_loop_truncations = 0;
  std::uint64_t condense_rows_in = 0, condense_rows_out = 0;
  std::uint64_t solve_q = 0, solve_lp_solves = 0, solve_roundings = 0,
                solve_repairs = 0, solve_kernel_case_evals = 0;
  std::uint64_t lp_iterations = 0, lp_phase1_iterations = 0,
                lp_refactorizations = 0, lp_warm_attempts = 0,
                lp_warm_hits = 0;
  std::uint64_t ced_gates = 0;
  std::uint64_t store_loads = 0, store_bytes = 0;
  std::uint64_t campaign_units = 0, campaign_activations = 0;
  int campaign_max_latency = 0;
  std::vector<double> serve_overhead_ms;
  double serve_extract_s = 0, serve_solve_s = 0;
  std::uint64_t serve_warm_hits = 0, serve_cold_misses = 0,
                serve_dedup_joins = 0, serve_overload_rejections = 0,
                serve_client_retries = 0;
};

/// Span capacity of a traced run's tracer: far above what any run records,
/// so no span is dropped.
inline constexpr std::size_t kSpanCapacity = 1 << 16;

/// A span around one call into a layer, tagged with the operation (circuit
/// or request) it serves; a no-op when `tracer` is null. Spans are kept in
/// the tracer's memory and written out when the run ends.
ced::obs::ScopedSpan layer_span(ced::obs::Tracer* tracer, const char* name,
                                std::uint64_t parent, std::uint64_t op);

/// Per-layer metrics of a pass: counts from `counts`, times from the self
/// times of the spans in `log` (a span's duration minus what its children
/// cover).
std::map<std::string, Metric> layer_metrics(const LayerCounts& counts,
                                            const ced::obs::Tracer& log);

/// Adds to `out` every metric of `extra` whose layer (the name up to the
/// first '.') `out` does not have yet.
void merge_missing_layers(std::map<std::string, Metric>& out,
                          const std::map<std::string, Metric>& extra);

// ------------------------------------------------------------- machines

/// One benchmark machine: a Table-1 profile generated from benchdata.
struct Machine {
  std::string name;
  ced::fsm::Fsm fsm;
};

/// The protect workloads' circuits: the 16 Table-1 profiles (three small
/// ones under --smoke), in suite order at seed 0 and in a seed-derived
/// order otherwise. The machines themselves never depend on the seed.
std::vector<Machine> table1_machines(const Config& cfg);
/// The named Table-1 machines, in a seed-derived order (suite order at 0).
std::vector<Machine> named_machines(const Config& cfg,
                                    std::vector<std::string> names);

/// The circuit reported as s1488_s (s1488; a small stand-in under --smoke).
std::string headline_circuit(const Config& cfg);

/// splitmix64 step, the benchmark's only source of pseudo-randomness.
std::uint64_t mix(std::uint64_t x);

// ------------------------------------------------------- layered sweep

/// One selected scheme of a sweep.
struct Scheme {
  int latency = 0;
  std::vector<ced::core::ParityFunc> parities;
  std::size_t condensed_cases = 0;  ///< Algorithm1Stats::condensed_cases
};

/// Result of a layered sweep over one machine.
struct LayeredSweep {
  ced::fsm::FsmCircuit circuit;
  std::vector<ced::sim::StuckAtFault> faults;
  std::vector<ced::core::DetectabilityTable> tables;  ///< latencies 1..p_max
  std::vector<Scheme> schemes;                        ///< one per latency
  ced::core::CedHardware hw;                          ///< of the last latency
  std::string key;    ///< extraction key, when the tables came from a store
  std::string error;  ///< empty on success
};

/// The calls ced::run_latency_sweep makes, made one by one so each layer
/// gets its own span: synthesize, enumerate faults, extract (or, with an
/// archive, load the stored tables), then solve and synthesize the CED
/// logic for each latency. Produces the same schemes as the library call.
/// `log` may be null (untraced); `counts` may be null.
LayeredSweep layered_sweep(const ced::fsm::Fsm& f, std::span<const int> ps,
                           const ced::RunConfig& cfg,
                           ced::core::ExtractArchive* archive,
                           ced::obs::Tracer* log,
                           std::uint64_t op, LayerCounts* counts);

/// Times core::condense_table on each table the sweep solved (outside any
/// op span). Returns false when its row count differs from the solver's
/// Algorithm1Stats::condensed_cases.
bool condense_probe(const LayeredSweep& sweep, ced::obs::Tracer& log,
                    LayerCounts& counts);

/// Size of the stored table bundle under `key` (0 when absent).
std::uint64_t stored_table_bytes(const ced::storage::ArtifactStore& store,
                                 const std::string& key);

/// Calls sim::simulate_all_inputs for every collapsed fault x reachable
/// state of s1488 and s298 (a small circuit under --smoke) on kThreads
/// threads, under one "sim.rows" span.
void sim_probe(const Config& cfg, ced::obs::Tracer& log, LayerCounts& counts);

// ---------------------------------------------------------------- checks

/// Reference check with the scalar core::covers loop (not the SIMD kernel
/// the solver uses): every case of `table` is detected by some parity.
bool scalar_covers_all(std::span<const ced::core::ParityFunc> parities,
                       const ced::core::DetectabilityTable& table);

/// 16-hex-digit FNV-1a digest of a parity-mask list.
std::string mask_digest(std::span<const ced::core::ParityFunc> parities);

/// Compares `out.observed_pins` with the pin file (or, with --write-pins,
/// merges them into it). Pins are only checked at full size.
void check_pins(const Config& cfg, Outcome& out);

// ------------------------------------------------------------- reporting

/// Wall-clock seconds since `t0`.
double seconds_since(std::chrono::steady_clock::time_point t0);

/// Peak resident set of this process since the last reset_peak_rss(), in
/// MiB.
double peak_rss_mb();
/// Returns the heap's free pages to the system (glibc malloc_trim) and
/// restarts the peak, so the next peak_rss_mb() is the peak of the work in
/// between over what stays live, whatever fragmentation earlier work left.
void reset_peak_rss();

/// One timed operation of a workload.
struct OpSample {
  std::string key;  ///< the circuit; samples of one key are one operation
  double seconds = 0;
  double peak_mb = 0;  ///< peak resident set while it ran
};

/// Runs `pass(i)` for i = 0, 1, ... until `cfg.seconds` have passed and at
/// least `min_passes` passes ran. A traced run makes exactly one pass.
void run_passes(const Config& cfg, std::size_t min_passes,
                const std::function<void(std::size_t)>& pass);

/// One operation of a pass: resets the peak resident set (outside the
/// operation's time), runs `fn`, and records its seconds and peak.
void timed_op(std::vector<OpSample>& ops, const std::string& key,
              const std::function<void()>& fn);

/// Each operation's fastest time over the run's passes, by key.
std::map<std::string, double> fastest_seconds(
    const std::vector<OpSample>& ops);

/// The largest over operations of each operation's smallest peak resident
/// set over the run's passes (peak_rss_mb).
double least_peak_mb(const std::vector<OpSample>& ops);

/// The sum of every operation's fastest time: one pass at the fastest speed
/// the run saw for each of its operations (run_s).
double fastest_pass_seconds(const std::vector<OpSample>& ops);

/// End-to-end metrics of a workload: setup_s, run_s, s1488_s, peak_rss_mb.
void report_end_to_end(const Config& cfg, Outcome& out, double setup_s,
                       const std::vector<OpSample>& ops);

/// Per-layer metrics of a traced run plus its tracing overhead; writes the
/// span file and the per-layer table under cfg.trace_dir.
void report_traced(const Config& cfg, Outcome& out,
                   const ced::obs::Tracer& log,
                   std::map<std::string, Metric> layers, double untraced_run_s,
                   double traced_run_s);

/// Layers a workload's own traced pass did not reach, measured on a small
/// circuit so every traced run reports every layer.
std::map<std::string, Metric> probe_missing_layers(
    const Config& cfg, const std::set<std::string>& have, Outcome& out);

// -------------------------------------------------------------- workloads

Outcome run_protect_cold(const Config& cfg);
Outcome run_protect_warm(const Config& cfg);
Outcome run_campaign_workload(const Config& cfg);

/// A traced burst of serve traffic on a fresh in-process server: the serve
/// layer's metrics for every traced run.
std::map<std::string, Metric> serve_probe(const Config& cfg, Outcome& out);

}  // namespace perfbench
