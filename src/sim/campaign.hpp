#pragma once

// Closed-loop fault-injection campaign engine: empirically proves (or
// measures) bounded-latency detection by driving the full protected design
// (sim/protected_machine.hpp) under injected faults and recording when the
// checker actually fires.
//
// Each fault class has one engine (CampaignPolicy), fixed by the model:
//   kStuckAt         persistent stuck-at on a netlist net, active for
//                    `persistence` cycles after its first activation
//                    (0 = permanent), judged by the exhaustive engine:
//                    every activation scenario (fault, reachable state,
//                    input), then the worst case over ALL input paths up to
//                    the horizon (memoized). With persistence 0 or >= the
//                    latency bound this is the paper's §2 fault class, and
//                    a clean run is a proof over every bounded path: any
//                    detected_late or silent_escape episode falsifies the
//                    scheme (CampaignReport::hard_guarantee()).
//   kTransientFlip   single-cycle upsets of 1..flip_bits state-register
//                    bits (the OpenSEA-style single-bit SEU at k = 1, the
//                    SCFI-style multi-bit attacker above), judged by seeded
//                    random walks from every reachable state. The logic
//                    stays fault-free; only the register is corrupted,
//                    which the Fig. 3 checker cannot in general see (the
//                    paper excludes SEUs for p > 1) — the campaign
//                    *measures* the escape rate instead of asserting a
//                    bound. Deterministic per seed at any thread count:
//                    walk w from reachable-state index si of unit u draws
//                    from Rng(seed).stream(u).stream(si * walks + w).
//
// Episode taxonomy (one episode per activation):
//   detected_in_bound  checker fired within latency_bound cycles
//   detected_late      fired after the bound but within the horizon
//   silent_escape      observable divergence, never flagged within the
//                      horizon (upsets: also unreconverged latent state
//                      corruption at the horizon)
//   benign             a unit with no activation at all (stuck-at faults
//                      masked by the logic; upsets that reconverge silently)
//
// Independently of the model, every campaign sweeps the fault-free design
// over every reachable (state, input): each transition on which the checker
// fires is a false alarm, and any false alarm falsifies the scheme.
//
// The engine runs extraction's checkpoint protocol (common/shards.hpp):
// units are partitioned into a fixed shard count independent of the thread
// count, shards poll the deadline privately, completed shards persist
// through ShardHooks (storage keys them by campaign_digest), and a killed
// campaign resumed from its checkpoints produces byte-identical verdicts.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/names.hpp"
#include "common/shards.hpp"
#include "core/resilience.hpp"
#include "obs/trace.hpp"
#include "sim/faults.hpp"
#include "sim/protected_machine.hpp"

namespace ced::sim {

/// Stored in campaign reports; 2 (a separate multi-bit flip model) is
/// retired and never reused.
enum class FaultModel {
  kStuckAt = 0,
  kTransientFlip = 1,
};

/// How the CLI's --model spells each fault model (common/names.hpp).
inline constexpr NameTable<FaultModel, 2> kFaultModelNames{{
    {"stuck", FaultModel::kStuckAt},
    {"transient", FaultModel::kTransientFlip},
}};

enum class CampaignPolicy {
  kExhaustive = 0,
  kRandomWalks = 1,
};

/// The one engine that judges each fault model: the exhaustive proof for
/// stuck-at faults, the seeded walks for state upsets.
constexpr CampaignPolicy policy_of(FaultModel m) {
  return m == FaultModel::kStuckAt ? CampaignPolicy::kExhaustive
                                   : CampaignPolicy::kRandomWalks;
}

/// The labels a campaign report prints ("stuck-at", "transient-flip", ...):
/// the JSON's field values, not flag spellings.
const char* to_string(FaultModel m);
const char* to_string(CampaignPolicy p);

struct CampaignOptions {
  FaultModel model = FaultModel::kStuckAt;
  /// Must be policy_of(model); run_campaign refuses any other.
  CampaignPolicy policy = CampaignPolicy::kExhaustive;
  /// Latency bound p the scheme was selected for (1 .. kMaxLatency).
  int latency_bound = 2;
  /// Escape cutoff in cycles: detection after `horizon` counts as
  /// silent_escape, between bound and horizon as detected_late.
  /// 0 resolves to latency_bound + 2 (see resolved_horizon).
  int horizon = 0;
  /// kStuckAt: cycles the fault stays active after first activation;
  /// 0 = permanent. The §2 guarantee needs persistence >= latency_bound.
  int persistence = 0;
  /// kTransientFlip: the most state bits one upset flips (1 .. state bits).
  int flip_bits = 1;
  /// kTransientFlip: walks per (unit, reachable state), and their seed. A
  /// walk ends at detection, at reconvergence or at the horizon.
  int walks = 8;
  std::uint64_t seed = 0xca4a16e;
  /// Worker threads for the shard fan-out (0 = CED_THREADS env or hardware
  /// concurrency). Verdicts are byte-identical at any count.
  int threads = 0;
  /// Cooperative valve: an expired deadline stops at the next unit
  /// boundary; completed shards stay durable, the report says truncated.
  core::Deadline deadline;
  /// Write-only diagnostics; verdicts are identical with sinks set or null.
  obs::Sinks obs;
};

/// The horizon actually used: opts.horizon, or latency_bound + 2 when 0.
int resolved_horizon(const CampaignOptions& opts);

/// Per-unit verdict. A "unit" is one fault of the model: a stuck-at fault
/// (encoded net << 1 | stuck_value, in canonical enumerate_stuck_at order)
/// or a state-register flip mask.
struct FaultVerdict {
  std::uint64_t unit = 0;
  std::uint64_t activations = 0;
  std::uint64_t detected_in_bound = 0;
  std::uint64_t detected_late = 0;
  std::uint64_t silent_escape = 0;
  /// Largest observed first-detection latency over detected episodes.
  int max_latency = 0;
  /// histogram[k-1] = episodes first detected k cycles after activation
  /// (size = horizon).
  std::vector<std::uint64_t> histogram;

  bool benign() const { return activations == 0; }
  bool operator==(const FaultVerdict&) const = default;
};

/// One completed checkpoint shard: the verdicts of a contiguous unit block,
/// a pure function of (design, unit block, options, shard count).
struct CampaignShard {
  std::uint32_t index = 0;
  std::uint32_t num_shards = 0;
  std::vector<FaultVerdict> verdicts;
};

/// The campaign's verdict sheet. Everything here is a deterministic
/// function of (circuit, checker, fault list, options, shard partition) —
/// wall-clock and thread count deliberately never enter, so the encoded
/// report is byte-identical across reruns, thread counts and resumes.
struct CampaignReport {
  FaultModel model = FaultModel::kStuckAt;
  CampaignPolicy policy = CampaignPolicy::kExhaustive;  ///< policy_of(model)
  int latency_bound = 0;
  int horizon = 0;
  int persistence = 0;
  int flip_bits = 0;
  int walks = 0;
  /// Always 96: a fixed word of the key and the stored report (no engine
  /// reads a walk length).
  int walk_length = 0;
  std::uint64_t seed = 0;

  std::uint64_t num_units = 0;
  std::uint64_t activations = 0;
  std::uint64_t detected_in_bound = 0;
  std::uint64_t detected_late = 0;
  std::uint64_t silent_escape = 0;
  std::uint64_t benign_units = 0;
  /// Fault-free (reachable state, input) transitions on which the checker
  /// fires.
  std::uint64_t false_alarms = 0;
  int max_latency = 0;
  std::vector<std::uint64_t> histogram;  ///< summed over units

  /// True when a valve (deadline or max_new_shards) stopped the campaign
  /// before every unit was judged: verdicts cover the units completed.
  bool truncated = false;
  std::string truncation_reason;

  std::vector<FaultVerdict> verdicts;  ///< unit order

  /// True when the fault model is within the paper's §2 class, i.e. the
  /// campaign asserts the bound instead of merely measuring coverage.
  bool hard_guarantee() const {
    return model == FaultModel::kStuckAt &&
           (persistence == 0 || persistence >= latency_bound);
  }
  /// Empirical form of the paper's claim: every activation detected within
  /// the bound, and no alarm without a fault. A hard-guarantee campaign
  /// with bound_holds() false is a falsified scheme (run_campaign reports
  /// it; callers decide the exit).
  bool bound_holds() const {
    return detected_late == 0 && silent_escape == 0 && false_alarms == 0;
  }
};

/// Human-readable unit name ("net7/SA1", "flip:0x4", ...).
std::string unit_label(FaultModel model, std::uint64_t unit);

/// Content digest (32 hex chars) of everything the verdicts depend on: the
/// functional netlist + encoding, the checker netlist + parities, the fault
/// list, every result-shaping campaign option and the shard partition,
/// which it resolves from `plan` as run_campaign does. Budget valves
/// (deadline, threads, max_new_shards) are excluded — truncated results
/// are never cached. This is the campaign's artifact key. Throws what
/// run_campaign throws for the same options and plan.
std::string campaign_digest(const fsm::FsmCircuit& circuit,
                            const core::CedHardware& hw,
                            std::span<const StuckAtFault> faults,
                            const CampaignOptions& opts,
                            const ShardPlan& plan = {});

/// Runs the campaign: shards the unit list (stuck-at faults as
/// net << 1 | stuck_value in enumerate_stuck_at order; upsets as every
/// mask of 1..flip_bits state bits, ascending), loads checkpointed shards
/// via `hooks`, fans the rest out over opts.threads workers, persists
/// every newly completed shard, and merges verdicts in fixed unit order.
/// Throws std::invalid_argument for malformed options (a policy that is
/// not policy_of(model), horizon below the bound, latency out of range,
/// flip_bits outside 1..state bits, more than 2^20 - 1 upsets, a negative
/// plan field).
CampaignReport run_campaign(const fsm::FsmCircuit& circuit,
                            const core::CedHardware& hw,
                            std::span<const StuckAtFault> faults,
                            const CampaignOptions& opts,
                            const ShardPlan& plan = {},
                            const ShardHooks<CampaignShard>& hooks = {});

/// One BENCH_campaign.json entry for this report: the verdict totals, the
/// latency histogram, and the run context (label, wall seconds, threads —
/// context only; the verdict fields are the deterministic part).
std::string campaign_report_json(const CampaignReport& report,
                                 const std::string& circuit_label,
                                 double wall_seconds, int threads);

}  // namespace ced::sim
