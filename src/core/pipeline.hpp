#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/exec.hpp"
#include "core/algorithm1.hpp"
#include "core/exact.hpp"
#include "core/extract.hpp"
#include "core/parity_synth.hpp"
#include "core/resilience.hpp"
#include "fsm/synthesize.hpp"
#include "sim/faults.hpp"

namespace ced::core {

/// Which parity-selection solver drives the pipeline.
enum class SolverKind {
  kLpRounding,  ///< Algorithm 1 (LP relaxation + randomized rounding)
  kGreedy,      ///< greedy/local-search baseline
  kExact,       ///< exhaustive optimum (small instances only; falls back
                ///< to Algorithm 1 when the instance is too large)
};

struct PipelineOptions {
  fsm::EncodingKind encoding = fsm::EncodingKind::kBinary;
  fsm::FsmSynthOptions synth;
  int latency = 1;
  SolverKind solver = SolverKind::kLpRounding;
  Algorithm1Options algo;
  ExactOptions exact;      ///< used when solver == kExact
  CedSynthOptions ced;
  logic::CellLibrary library = logic::CellLibrary::mcnc();
  sim::FaultListOptions faults;
  ExtractOptions extract;  ///< .latency is overridden by `latency`
  /// Execution policy for the whole run (common/exec.hpp): worker threads
  /// for the parallel stages (erroneous-case extraction and
  /// randomized-rounding trials; `exec.threads`: 1 = serial, 0 =
  /// CED_THREADS env or hardware concurrency, otherwise exactly that many
  /// — it overrides the `threads` members of `extract` and `algo`). The
  /// policy is installed ambiently around the run, so every stage and
  /// worker thread sees it. Results (tables, parities, CED hardware) are
  /// identical under every thread count on non-truncated runs; only
  /// wall-clock changes.
  ExecPolicy exec;
  /// Subset-dominance condensation before the solver (coverkernel.hpp):
  /// rows whose difference-word set contains another row's set add no
  /// constraint and are deleted, shrinking m before the LP/rounding ever
  /// runs. Provably solution-preserving (the returned cover is re-verified
  /// against the full table); disable to solve on the raw table.
  bool condense = true;
  /// Resource budget for the whole run. When any valve trips, stages
  /// degrade (exact -> LP+RR -> greedy -> duplication-style floor; table
  /// truncation) instead of throwing; see PipelineReport::resilience.
  RunBudget budget;

  /// Optional persistent artifact cache (storage::StoreArchive; non-owning,
  /// must outlive the run). When set, extraction first consults the store:
  /// a warm hit skips the whole stage (t_extract collapses to the load
  /// time), a miss runs shard-checkpointed extraction and persists every
  /// completed shard plus — on a complete run — the final table bundle.
  /// Corrupt artifacts are quarantined and recomputed; the incidents land
  /// in ResilienceReport::store_events, never in an exception.
  ExtractArchive* archive = nullptr;
  /// Read existing shard checkpoints before extracting (the `--resume`
  /// flag): an interrupted run's completed shards are loaded and only the
  /// remainder is computed, yielding tables byte-identical to an
  /// uninterrupted run. Checkpoints are written regardless; `resume` only
  /// gates reading them. Ignored without `archive`.
  bool resume = false;
  /// Checkpoint shard partition (0 = kDefaultCheckpointShards). Fixed
  /// independently of `threads` so artifacts are stable across machines;
  /// part of the cache key. Ignored without `archive`.
  int checkpoint_shards = 0;
  /// Deterministically stop extraction after computing this many new shards
  /// (0 = no limit): the controllable analogue of a budget trip, used by
  /// resume tests and `--max-new-shards`. Ignored without `archive`.
  int max_new_shards = 0;

  /// Observability sinks for the whole run (obs/trace.hpp): a span per
  /// stage and per cascade level, counters/histograms for the hot loops.
  /// Strictly write-only — q, the parities and the CED hardware are
  /// byte-identical with sinks set or all-null, at any thread count.
  /// Excluded from RunConfig::digest() for the same reason.
  obs::Sinks obs;
};

/// Everything the paper's Table 1 reports for one circuit at one latency,
/// plus diagnostics.
struct PipelineReport {
  // Original circuit.
  int inputs = 0, state_bits = 0, outputs = 0;
  std::size_t orig_gates = 0;
  double orig_area = 0.0;  ///< combinational logic + state register

  // Fault model / detectability table.
  std::size_t num_faults = 0;
  std::size_t num_detectable_faults = 0;
  std::size_t num_cases = 0;

  // Solution.
  int latency = 0;
  int num_trees = 0;               ///< q
  std::size_t ced_gates = 0;       ///< CED hardware gate count
  double ced_area = 0.0;           ///< CED hardware cost (incl. hold regs)
  std::vector<ParityFunc> parities;
  Algorithm1Stats algo_stats;

  /// Which budget valves fired, which cascade level answered, and the
  /// overall status classification for this report.
  ResilienceReport resilience;

  /// The Fig. 3 checker for `parities`, synthesized with the run's
  /// CedSynthOptions; ced_gates and ced_area are its cost. Empty on
  /// classified (failed) reports.
  CedHardware hw;

  /// Content-addressed extraction cache key (extraction_key()) when the
  /// run had an artifact archive; empty otherwise. storage::record_run
  /// files the run's scheme and manifest under it.
  std::string extraction_key;

  // Wall-clock seconds per stage, measured on shared boundaries (one clock
  // sample ends a stage and starts the next — obs::StageClock), so
  // t_synth + t_extract + t_solve + t_ced telescopes to the exact span
  // from run start to the last stage boundary. t_synth covers
  // derive_design (synthesis and fault enumeration).
  double t_synth = 0, t_extract = 0, t_solve = 0, t_ced = 0;
};

/// The design a configuration protects: the synthesized reference circuit
/// and its collapsed stuck-at fault list.
struct Design {
  fsm::FsmCircuit circuit;
  std::vector<sim::StuckAtFault> faults;
};

/// Synthesizes `f` under opts.encoding and opts.synth and enumerates its
/// faults under opts.faults. The pipeline derives its design here, so a
/// caller holding the run's options proves, keys and costs the circuit the
/// run extracted from.
Design derive_design(const fsm::Fsm& f, const PipelineOptions& opts);

/// The extraction cache key of `design` at `latency`: the result-shaping
/// opts.extract and the checkpoint partition resolved from
/// opts.checkpoint_shards. The only caller of extraction_digest in the
/// library; PipelineReport::extraction_key is this key at the sweep's
/// largest latency.
std::string extraction_key(const Design& design, const PipelineOptions& opts,
                           int latency);

/// The engine behind ced::run_pipeline / ced::run_latency_sweep
/// (core/run.hpp): synthesizes once, extracts the table once at
/// max(latencies), and derives each smaller-latency table by truncation
/// (provably identical to direct extraction). Returns one report per
/// requested latency, in order. Not part of the public surface — callers
/// go through ced::RunConfig.
std::vector<PipelineReport> run_latency_sweep_impl(
    const fsm::Fsm& f, std::span<const int> latencies,
    const PipelineOptions& opts);

/// The degradation cascade: runs the requested solver under the budget,
/// falling back exact -> LP+RR -> greedy -> duplication-style single-bit
/// floor when a budget valve trips or a level cannot certify an answer.
/// Always returns a complete cover of `table` (possibly the floor) and
/// records every downgrade in `resilience`.
std::vector<ParityFunc> select_parities_resilient(
    const DetectabilityTable& table, const PipelineOptions& opts,
    const Deadline& deadline, Algorithm1Stats* stats,
    std::span<const ParityFunc> warm_start, ResilienceReport& resilience);

/// The always-feasible answer-quality floor: one single-bit parity function
/// per needed observable bit (the shape of duplicate-and-compare). Computed
/// in one pass over the table; covers every case unconditionally.
std::vector<ParityFunc> duplication_floor_cover(const DetectabilityTable& table);

}  // namespace ced::core
