#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/names.hpp"
#include "common/shards.hpp"
#include "core/erroneous_case.hpp"
#include "core/resilience.hpp"
#include "fsm/synthesize.hpp"
#include "obs/trace.hpp"
#include "sim/fault_sim.hpp"
#include "sim/faults.hpp"

namespace ced::core {

/// How the per-step difference sets of an erroneous case are defined.
///
/// The paper (§3.1) formally defines an EC from the divergence of the
/// error-free machine GM(A, c) and the faulty machine BM_f(A, c) driven by
/// the same input sequence from the same start state — `kMachineLevel`.
/// Those difference sets are what the authors' fault simulator tabulated,
/// and they grow with latency (the two machines' states drift apart), which
/// is where the paper's large latency savings come from.
///
/// The Fig. 3 architecture, however, predicts from the FSM's *actual*
/// state register: once the register is corrupted, the checker can only
/// see the faulty logic differ from the fault-free logic evaluated at the
/// same (corrupted) state — `kImplementable`. This is the sound semantics:
/// a cover of the implementable table provably yields bounded-latency
/// detection in sequential simulation (see sim/campaign.hpp), at a somewhat
/// higher parity cost. The bench suite quantifies the gap.
enum class DiffSemantics {
  kImplementable,
  kMachineLevel,
};

/// How the CLI's --semantics, a serve request's 'semantics' and the
/// ledger spell each semantics (common/names.hpp).
inline constexpr NameTable<DiffSemantics, 2> kSemanticsNames{{
    {"impl", DiffSemantics::kImplementable},
    {"machine", DiffSemantics::kMachineLevel},
}};

struct ExtractOptions {
  /// Latency bound p (1 .. kMaxLatency).
  int latency = 1;
  DiffSemantics semantics = DiffSemantics::kImplementable;
  /// Enumerate activations only from state codes reachable from reset in
  /// the fault-free circuit (matches real operation). When false, every
  /// s-bit code is an activation candidate.
  bool restrict_to_reachable = true;
  /// Above this many (subset-minimal, canonical) cases, a table degrades
  /// gracefully: cases are strengthened to their k smallest difference
  /// words, with k stepping down until the table fits. Strengthening only
  /// removes detection alternatives, so results stay sound (possibly a few
  /// extra parity trees); the table's `strengthened` flag reports it.
  std::size_t degrade_threshold = 2'000'000;
  /// Hard valve (after degradation to single-word cases), counted in each
  /// extraction shard: once a shard's case sets hold more cases, the table
  /// being filled freezes with its cases found so far, and the merged
  /// table reports `truncated` — a cover of it is still a valid
  /// (partial-coverage) answer for exactly those cases.
  std::size_t max_cases = 5'000'000;
  /// Cooperative wall-clock budget: when it expires mid-DFS, each shard
  /// stops at its next poll and every table still open is marked
  /// truncated.
  Deadline deadline;
  /// Worker threads for the shards still to compute, and for the case-set
  /// work that is not per shard: each large compaction (inside a shard
  /// and in the merge) and the merge's sort spread over this many threads,
  /// and neither their results nor their counters depend on the count.
  /// 1 = serial, 0 = CED_THREADS env or hardware concurrency (see
  /// common/parallel.hpp).
  /// extract_cases_multi also makes it the shard count, so without a store
  /// the partition is the thread count: each shard degrades against
  /// degrade_threshold / shards, and a table that degrades is strengthened
  /// by an amount that depends on the thread count (s1488 p=3: 181134
  /// cases at 4 threads, 67097 at 16). Cases of complete tables under the
  /// degrade threshold are identical for every partition; the
  /// path-enumeration statistics (num_paths, num_loop_truncations) are
  /// not, because subtree pruning only sees a shard's own cases.
  int threads = 0;
  /// Observability sinks: an `extract-trace` span for the golden-trace
  /// build, one `extract-shard` span per computed shard and an
  /// `extract-merge` span for the merge (all nested under `parent_span`,
  /// typically the pipeline's extract stage span) plus per-shard
  /// counters. Write-only diagnostics — the extracted tables are
  /// byte-identical with sinks set or null, at any thread count.
  obs::Sinks obs;
};

/// The error detectability table of Fig. 2: the union of all erroneous
/// cases in canonical form (sorted distinct nonzero step difference-words;
/// see extract_cases_multi), plus extraction statistics. Rows the cover
/// problem cannot distinguish are merged.
struct DetectabilityTable {
  int num_bits = 0;  ///< n = state bits + outputs
  int latency = 0;   ///< p used during extraction
  /// True if the degrade threshold forced case strengthening (results are
  /// then conservative: a valid cover, possibly with extra trees).
  bool strengthened = false;
  /// True if a budget valve (case limit or wall-clock deadline) stopped
  /// enumeration before exhausting the path space: `cases` then holds the
  /// subset found so far, and detection claims hold for exactly those rows.
  bool truncated = false;
  /// Human-readable reason when `truncated` is set.
  std::string truncation_reason;
  /// Sorted and subset-minimal: no case's word set contains another's.
  /// Extraction's final merge establishes this once for every table it
  /// returns (truncated and strengthened ones too), so the solvers take
  /// the table as it is; core::condense_table removes nothing from it.
  std::vector<ErroneousCase> cases;

  // Statistics.
  std::size_t num_faults = 0;           ///< faults simulated
  std::size_t num_detectable_faults = 0;///< faults with >= 1 activation
  std::size_t num_activations = 0;      ///< (fault, state, input-class) roots
  std::size_t num_paths = 0;            ///< enumerated paths (pre-dedup)
  std::size_t num_loop_truncations = 0; ///< paths cut by the loop rule

  /// V(i, j, k) of §4 (0-based i, j, k).
  bool v(std::size_t i, int j, int k) const {
    const ErroneousCase& ec = cases[i];
    if (k >= ec.length()) return false;
    return (ec.diff[static_cast<std::size_t>(k)] >> j) & 1;
  }
};

/// Builds the detectability tables for every latency bound 1..opts.latency
/// in a single fault-simulation + path-enumeration pass (§2, §3.1):
/// result[p-1] is the table for bound p.
///
/// Cases are stored in *canonical form*: the sorted set of distinct nonzero
/// step difference-words. Coverage of an EC depends only on that set
/// (a parity tree detects the case iff it has odd overlap with SOME step's
/// difference), so canonicalization merges rows the cover problem cannot
/// distinguish — exactness is preserved while path-order blowup collapses.
///
/// The extraction path without a store: extract_cases_sharded with one
/// shard per thread (resolve_threads(opts.threads)) and no checkpoint
/// hooks. A table the case valve truncates is a function of the inputs and
/// the thread count, never of timing.
std::vector<DetectabilityTable> extract_cases_multi(
    const fsm::FsmCircuit& circuit,
    std::span<const sim::StuckAtFault> faults, const ExtractOptions& opts);

/// Single-latency convenience wrapper: the table for bound opts.latency.
DetectabilityTable extract_cases(const fsm::FsmCircuit& circuit,
                                 std::span<const sim::StuckAtFault> faults,
                                 const ExtractOptions& opts = {});

// ---------------------------------------------------------------------------
// Checkpointed (shard-granular) extraction.
//
// The fault list is split into a FIXED contiguous-block partition (with a
// store, a shard count independent of the worker-thread count; without
// one, a shard per thread), and every shard is extracted as a pure
// function of (circuit, its fault block, options, shard count): each shard
// runs with private budget valves, so its result never depends on what
// other shards did or on execution timing. That makes a completed shard a
// durable unit of work. Through the checkpoint protocol it shares with the
// campaign (common/shards.hpp) the storage layer persists each shard as it
// finishes, and a later run loads the completed shards and computes only
// the remainder, producing tables byte-identical (cases AND statistics) to
// an uninterrupted run at any thread count.
// ---------------------------------------------------------------------------

/// One completed shard as a checkpoint holds it: the per-latency tables
/// holding the shard's local statistics and its own compacted, sorted case
/// lists. Mergeable in fixed shard order into the final tables.
struct ExtractShard {
  std::uint32_t index = 0;
  std::uint32_t num_shards = 0;
  std::vector<DetectabilityTable> tables;  ///< one per latency 1..p
};

/// Default checkpoint shard count (before clamping to the fault count).
/// Fixed — NOT derived from the thread count — so the shard partition, and
/// with it every per-shard artifact, is stable across machines and runs.
inline constexpr int kDefaultCheckpointShards = 16;

/// Resolves a requested checkpoint shard count: <= 0 picks the default,
/// and the result never exceeds the fault count (>= 1 always).
int resolve_checkpoint_shards(int requested, std::size_t num_faults);

/// The extraction engine: every table comes from here, with a store or
/// without one (extract_cases_multi). A checkpoint holding one untruncated
/// table per latency is used; shards still to compute run under
/// opts.threads workers, each with private budget valves. A wall-clock/
/// case-valve trip mid-shard keeps that shard's partial cases in the
/// returned (truncated) tables but never persists them; a shard passed to
/// `hooks.save` holds compacted, sorted cases. Unless the deadline fires,
/// the result — cases and statistics — depends only on the inputs and the
/// shard count, never on the thread count or timing, and a complete run is
/// byte-identical to a resumed one.
std::vector<DetectabilityTable> extract_cases_sharded(
    const fsm::FsmCircuit& circuit, std::span<const sim::StuckAtFault> faults,
    const ExtractOptions& opts, const ShardPlan& plan = {},
    const ShardHooks<ExtractShard>& hooks = {});

/// Content digest (32 hex chars) of everything a detectability-table bundle
/// depends on: the synthesized circuit (netlist, encoding, reset code), the
/// collapsed fault list, the result-shaping extraction options (latency,
/// semantics, reachability restriction, degrade threshold) and the shard
/// partition. Two runs with equal digests produce byte-identical tables, so
/// the digest is the artifact-store cache key; budget valves (deadline,
/// max_cases) are deliberately excluded — truncated results are never
/// cached.
std::string extraction_digest(const fsm::FsmCircuit& circuit,
                              std::span<const sim::StuckAtFault> faults,
                              const ExtractOptions& opts, int num_shards);

/// Interface to a persistent, corruption-detecting artifact cache for
/// extraction results, implemented by storage::StoreArchive (src/storage).
/// Core calls it through this interface so the dependency points from
/// storage to core, not the other way. Implementations must not throw, and
/// shard_hooks' save must tolerate concurrent calls from worker threads.
class ExtractArchive {
 public:
  virtual ~ExtractArchive() = default;

  /// Cached complete table bundle for `key` (latencies 1..p in order).
  /// Empty on miss; corrupt artifacts are quarantined, reported through
  /// drain_events(), and read as a miss.
  virtual std::vector<DetectabilityTable> load_tables(
      const std::string& key) = 0;
  virtual void store_tables(const std::string& key,
                            const std::vector<DetectabilityTable>& tables) = 0;

  /// Checkpoint hooks for the shards of `key`; load reads a corrupt or
  /// mismatched shard as a miss.
  virtual ShardHooks<ExtractShard> shard_hooks(const std::string& key) = 0;
  /// Drops the shard checkpoints of `key` once the final bundle is durable.
  virtual void drop_shards(const std::string& key) = 0;

  /// Store incidents (quarantined corrupt artifacts, unwritable files, ...)
  /// since the last drain, as human-readable lines; the pipeline records
  /// them in ResilienceReport::store_events.
  virtual std::vector<std::string> drain_events() = 0;
};

}  // namespace ced::core
