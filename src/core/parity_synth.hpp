#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/parity.hpp"
#include "fsm/synthesize.hpp"
#include "logic/area.hpp"
#include "logic/bitvec.hpp"

namespace ced::core {

/// What the Fig. 3 checker is: its predictors' specification and its
/// comparator's interface. How it is implemented is fixed: every
/// predictor is minimized (Espresso), factored and mapped like the FSM
/// logic (fsm::synthesize_fsm), and the finished checker is optimized.
struct CedSynthOptions {
  /// Treat unreachable state codes as don't-cares when minimizing the
  /// prediction logic (sound: the fault-free machine never visits them).
  bool dc_unreachable = true;
  /// Build the comparator as a tree of two-rail checker cells (the
  /// totally-self-checking comparator style of the paper's ref [8],
  /// Bolchini et al.) instead of a plain XOR/OR tree. The checker then
  /// also exposes dual-rail outputs whose non-complementarity signals
  /// either an FSM error or a fault inside the checker itself.
  bool two_rail = false;
};

/// The synthesized CED circuitry of Fig. 3: q XOR compaction trees over the
/// FSM's next-state/output bits, the combinational prediction logic, and
/// the inequality comparator. Hold registers (output hold + prediction
/// hold, 2q flip-flops) are accounted separately since the netlist itself
/// is combinational.
///
/// Checker netlist interface:
///   inputs : r primary inputs, s present-state bits, n observable bits
///            (the FSM logic's actual next-state/output values);
///   outputs: q compacted bits, q predicted bits, 1 error bit
///            (error = 1 iff compacted != predicted).
struct CedHardware {
  std::vector<ParityFunc> parities;
  logic::Netlist checker;
  std::size_t hold_registers = 0;  ///< 2q
  int r = 0, s = 0, n = 0, q = 0;
  /// True when the comparator is a two-rail checker tree; the checker then
  /// has two extra outputs (rail0, rail1) before the final error bit.
  bool two_rail = false;

  /// Evaluates the checker for one transition; returns true iff the error
  /// signal is asserted. `observable` is the FSM logic's n-bit response.
  bool error_asserted(std::uint64_t input, std::uint64_t state_code,
                      std::uint64_t observable) const;

  /// Total CED hardware cost: checker gates plus hold-register area.
  logic::AreaReport cost(const logic::CellLibrary& lib) const {
    return logic::measure_area(checker, lib, hold_registers);
  }
};

/// Builds the Fig. 3 checkers of one circuit, one scheme after another.
/// The constructor does the work every scheme shares: it simulates the
/// fault-free circuit on every specified state code once (the golden rows
/// the prediction logic is specified from) and marks the input
/// assignments of unreachable codes as don't-cares. synthesize() then
/// specifies and minimizes one predictor per parity function under
/// parallel_for at `threads` workers (each predictor depends only on its
/// mask) and maps them onto the netlist serially, in mask order, so the
/// checker is identical at every thread count. A latency sweep whose
/// consecutive schemes repeat gets the previous checker back unchanged.
class CedSynthesizer {
 public:
  /// Throws std::invalid_argument when the checker's r + s + n inputs do
  /// not fit one assignment word (more than 62).
  CedSynthesizer(const fsm::FsmCircuit& circuit, const CedSynthOptions& opts,
                 int threads);

  /// The checker for `parities`; valid until the next call. When
  /// `parities` equals the previous call's scheme, the previous checker is
  /// returned without any work.
  const CedHardware& synthesize(std::span<const ParityFunc> parities);

  /// True when the last synthesize() returned the previous checker.
  bool reused() const { return reused_; }

 private:
  /// One specified input assignment (input, state code) of the prediction
  /// logic and the fault-free circuit's observable response to it.
  struct GoldenRow {
    std::uint64_t alpha;
    std::uint64_t response;
  };

  CedSynthOptions opts_;
  int threads_;
  int r_, s_, n_;
  logic::BitVec dc_;
  std::vector<GoldenRow> rows_;
  std::optional<CedHardware> hw_;
  bool reused_ = false;
};

/// Builds the Fig. 3 architecture for the chosen parity functions: one
/// serial CedSynthesizer call. The prediction logic is specified from the
/// fault-free circuit itself (golden simulation of every reachable state)
/// and minimized with the same two-level flow as the FSM logic.
CedHardware synthesize_ced(const fsm::FsmCircuit& circuit,
                           std::span<const ParityFunc> parities,
                           const CedSynthOptions& opts = {});

}  // namespace ced::core
