#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/exec.hpp"
#include "common/names.hpp"
#include "core/algorithm1.hpp"
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
};

/// How the CLI's --solver, a serve request's 'solver' and stored scheme
/// names spell each solver (common/names.hpp).
inline constexpr NameTable<SolverKind, 2> kSolverNames{{
    {"lp", SolverKind::kLpRounding},
    {"greedy", SolverKind::kGreedy},
}};

struct PipelineOptions {
  fsm::EncodingKind encoding = fsm::EncodingKind::kBinary;
  /// Empty: FSM synthesis has nothing to set (fsm/synthesize.hpp).
  fsm::FsmSynthOptions synth;
  int latency = 1;
  SolverKind solver = SolverKind::kLpRounding;
  Algorithm1Options algo;
  CedSynthOptions ced;
  logic::CellLibrary library = logic::CellLibrary::mcnc();
  sim::FaultListOptions faults;
  ExtractOptions extract;  ///< .latency is overridden by `latency`
  /// Execution policy for the whole run (common/exec.hpp): worker threads
  /// for the parallel stages (erroneous-case extraction, randomized-rounding
  /// trials and the CED predictors' minimization; `exec.threads`: 1 =
  /// serial, 0 = CED_THREADS env or hardware concurrency, otherwise
  /// exactly that many — it overrides the `threads` members of `extract`
  /// and `algo`). The policy is installed ambiently around the run, so
  /// every stage and worker thread sees it. Results (tables, parities, CED
  /// hardware) are identical under every thread count on non-truncated
  /// runs, except for a no-store table that degrades (without an archive
  /// the extraction shards are the threads; DESIGN.md §7, "Known
  /// defect"); otherwise only wall-clock changes.
  ExecPolicy exec;
  /// Resource budget for the whole run. When any valve trips, stages
  /// degrade (LP+RR -> greedy -> duplication-style floor; table
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
  // derive_design (synthesis and fault enumeration); t_solve covers every
  // link of the solve chain since the previous stage boundary, i.e. this
  // link and the unrequested links just below it.
  double t_synth = 0, t_extract = 0, t_solve = 0, t_ced = 0;
};

/// The design a configuration protects: the synthesized reference circuit
/// and its collapsed stuck-at fault list.
struct Design {
  fsm::FsmCircuit circuit;
  std::vector<sim::StuckAtFault> faults;
};

/// Synthesizes `f` under opts.encoding and enumerates its
/// faults under opts.faults. The pipeline derives its design here, so a
/// caller holding the run's options proves, keys and costs the circuit the
/// run extracted from.
Design derive_design(const fsm::Fsm& f, const PipelineOptions& opts);

/// Fills `rep`'s original-circuit fields (inputs through orig_area, the
/// logic costed under `library` with the state register) and num_faults
/// from `design`. Every pipeline report gets them here, and so do Table 1's
/// original-circuit columns, which bench_ledger --report prints without
/// running the pipeline.
void fill_design_fields(PipelineReport& rep, const Design& design,
                        const logic::CellLibrary& library);

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
/// (provably identical to direct extraction). Then it solves the chain
/// p = 1..max(latencies) in ascending order, each link warm-started from
/// the cover below, and synthesizes a checker only for the requested
/// links. Returns one report per requested latency, in request order; the
/// report at p is link p of the chain whatever else was requested. Not
/// part of the public surface — callers go through ced::RunConfig.
std::vector<PipelineReport> run_latency_sweep_impl(
    const fsm::Fsm& f, std::span<const int> latencies,
    const PipelineOptions& opts);

/// The degradation cascade: Algorithm 1 under the budget, unless greedy
/// was requested or the deadline has already passed; then greedy, which
/// out of time closes its cover out with single-bit functions (the
/// duplication-style floor). The solvers see `table` as given: extraction
/// leaves its cases subset-minimal (DetectabilityTable::cases), so there
/// is nothing to condense, and `stats->condensed_cases` is its row count.
/// Both levels verify their cover against `table`, so this always returns
/// a complete cover of it, and records every downgrade in `resilience`.
std::vector<ParityFunc> select_parities_resilient(
    const DetectabilityTable& table, const PipelineOptions& opts,
    const Deadline& deadline, Algorithm1Stats* stats,
    std::span<const ParityFunc> warm_start, ResilienceReport& resilience);

}  // namespace ced::core
