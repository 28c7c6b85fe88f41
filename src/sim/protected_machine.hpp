#pragma once

// Cycle-accurate model of the full protected design of Fig. 3: the
// functional FSM netlist advancing its state register while the synthesized
// checker (parity compaction trees + prediction logic + comparator, built by
// core/parity_synth) watches every transition. The campaign engine
// (sim/campaign.hpp) drives this model under injected faults; everything
// here is batched the same way as the extraction fault simulator — 64
// concrete input values per netlist pass. A faulty row at a reachable state
// comes from the cone-restricted FaultyCache over the machine's golden
// trace, which also finds the reachable set in the same netlist passes. Its
// checker verdict is the golden verdict word on every 64-input batch whose
// response equals the golden one, since the checker sees identical inputs
// there; on the other batches only the checker's response cone (the
// compaction trees and the comparator) is re-evaluated, from the pattern
// words the FaultyCache cone already holds, reading every other checker net
// from the golden pass. Where the fault changes no response at all, the
// session hands out the golden row itself.
//
// The split mirrors fault_sim.hpp: a ProtectedMachine holds the shared,
// immutable golden data (reachable set, golden trace, fault-free response
// rows, fault-free checker verdicts), and each worker opens a private
// FaultSession per fault whose caches may grow into corrupted state codes
// the golden machine never visits. Sessions never write shared state, which
// is what lets the campaign fan units out with parallel_for and stay
// deterministic.

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/parity_synth.hpp"
#include "fsm/synthesize.hpp"
#include "sim/fault_sim.hpp"

namespace ced::sim {

/// Batched checker evaluation: given one present state and the FSM's
/// observable response for every concrete input value (`responses[a]` for
/// input a, as produced by simulate_all_inputs), returns the packed error
/// verdicts — bit (a % 64) of word a/64 is 1 iff the checker asserts its
/// error output on the transition (input a, state_code, responses[a]).
/// 64 transitions are evaluated per checker-netlist pass. This full pass is
/// the reference for the response-cone verdicts of faulty rows.
std::vector<std::uint64_t> checker_error_mask(
    const core::CedHardware& hw, std::uint64_t state_code,
    std::span<const std::uint64_t> responses);

/// One state's fully-simulated transition row: the FSM response per input
/// plus the checker verdict per input, for a fixed injection context.
struct TransitionRow {
  std::vector<std::uint64_t> response;  ///< packed observable word per input
  std::vector<std::uint64_t> error;     ///< packed checker bits, 64 per word

  bool error_at(std::uint64_t input) const {
    return ((error[input >> 6] >> (input & 63)) & 1) != 0;
  }
};

/// Shared, immutable-after-construction view of the protected design: the
/// functional circuit, the checker hardware, the reachable state set, its
/// golden trace, the fault-free rows (response + checker verdict) for
/// every reachable state, and the checker's response cone with the words
/// its outside nets carry at each reachable state. Construction runs the
/// golden simulation once; afterwards the object is read-only and safe to
/// share across campaign workers.
class ProtectedMachine {
 public:
  ProtectedMachine(const fsm::FsmCircuit& circuit,
                   const core::CedHardware& hw);

  const fsm::FsmCircuit& circuit() const { return circuit_; }
  const core::CedHardware& hw() const { return hw_; }
  /// The reachable codes in increasing order.
  const std::vector<std::uint64_t>& reachable() const {
    return trace_.codes();
  }
  const GoldenTrace& trace() const { return trace_; }
  std::uint64_t num_inputs() const {
    return std::uint64_t{1} << circuit_.r();
  }

  /// Fault-free row for a *reachable* state; nullptr for any other code
  /// (sessions fall back to their private caches for those).
  const TransitionRow* golden_row(std::uint64_t state_code) const;

 private:
  friend class FaultSession;

  /// A reachable code's golden row plus, per 64-input batch, the word of
  /// every outside net: outside[batch * outside_.size() + k] for net
  /// outside_[k].
  struct Golden {
    TransitionRow row;
    std::vector<std::uint64_t> outside;
  };

  /// A cone gate's fan-in range in srcs_. A source is (slot << 1) for a
  /// cone net or (k << 1) | 1 for outside_[k]; slots 0 .. n-1 are the
  /// observable-bit inputs and slot n + i is cone_[i].
  struct ConeGate {
    logic::GateType type;
    std::uint32_t begin, end;
  };

  /// Checker verdicts of a faulty response row at `state_code`, equal to
  /// checker_error_mask's, given the row's pattern words from
  /// FaultyCache::build. At a traced code a batch whose responses equal the
  /// golden row's keeps the golden verdict word and each changed batch
  /// evaluates the response cone alone on its words; at any other code
  /// every batch is a full checker pass. `counters` counts the cone and
  /// full batches.
  std::vector<std::uint64_t> faulty_verdicts(
      std::uint64_t state_code, std::span<const std::uint64_t> responses,
      const RowWords& words, SimCounters& counters) const;

  const fsm::FsmCircuit& circuit_;
  const core::CedHardware& hw_;
  GoldenTrace trace_;  ///< the reachable codes, traced
  /// The checker's response cone: every gate with a transitive fan-in
  /// among the observable-bit inputs, in net order, and the nets outside
  /// it that its gates or the error output read.
  std::vector<ConeGate> cone_;
  std::vector<std::uint32_t> srcs_;
  std::vector<std::uint32_t> outside_;
  std::uint32_t error_src_ = 0;  ///< the error output, encoded as a source
  std::unordered_map<std::uint64_t, Golden> golden_;
};

/// A worker's private simulation context for one fault (or for the
/// fault-free machine when `injection` is null — the transient-flip models
/// corrupt the state register, not the logic). Rows are memoized per state
/// code: faulty rows in one cache, fault-free rows in another that reads
/// through to the shared ProtectedMachine for reachable codes and simulates
/// privately for corrupted ones (where the checker verdict is genuinely
/// interesting: prediction don't-cares at unreachable codes mean the
/// fault-free logic can raise the error signal there).
class FaultSession {
 public:
  FaultSession(const ProtectedMachine& pm, const logic::Injection* injection);

  /// Row of the machine with the session's fault active. Requires the
  /// session to have an injection. The response is built once, through
  /// FaultyCache::build, and held only here. At a traced reachable code
  /// where the fault changes no response it is the ProtectedMachine's
  /// golden_row object itself: no copy, no checker pass.
  const TransitionRow& faulty_row(std::uint64_t state_code);

  /// Row of the fault-free machine at `state_code` (any code, reachable or
  /// not). Used for divergence reference and for aged-out faults.
  const TransitionRow& golden_row(std::uint64_t state_code);

  const ProtectedMachine& machine() const { return pm_; }

  /// Simulator counters of the session's faulty rows and their checker
  /// batches (zero without an injection).
  SimCounters counters() const {
    SimCounters c = faulty_sim_ ? faulty_sim_->counters() : SimCounters{};
    c += checker_counters_;
    return c;
  }

 private:
  const ProtectedMachine& pm_;
  std::optional<FaultyCache> faulty_sim_;
  RowWords words_;  ///< the last faulty row's pattern words
  SimCounters checker_counters_;
  /// code -> row; an empty row marks a code where the fault is dormant.
  std::unordered_map<std::uint64_t, TransitionRow> faulty_;
  std::unordered_map<std::uint64_t, TransitionRow> golden_local_;
};

}  // namespace ced::sim
