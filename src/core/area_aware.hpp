#pragma once

#include <vector>

#include "core/parity.hpp"
#include "core/parity_synth.hpp"

namespace ced::core {

/// Options for area-aware parity selection.
struct AreaAwareOptions {
  /// Synthesis settings used when scoring a candidate (the score is the
  /// real post-synthesis CED area, not an estimate).
  CedSynthOptions ced;
  logic::CellLibrary library = logic::CellLibrary::mcnc();
  /// Hard budget on full cost evaluations (each one synthesizes the
  /// compaction trees, prediction logic and comparator).
  int max_evaluations = 120;
  std::uint64_t seed = 0xa3ea;
};

struct AreaAwareResult {
  std::vector<ParityFunc> parities;
  double initial_area = 0.0;  ///< cost of the starting cover
  double final_area = 0.0;    ///< cost after area-driven local search
  int evaluations = 0;        ///< full synthesis evaluations spent
};

/// §5 of the paper observes that minimizing the *number* of parity
/// functions does not always minimize hardware (the dk16 anomaly) and that
/// the literature lacks area-driven selection. This implements that missing
/// step: starting from `start`, a cover of `table` (e.g. the solve chain's
/// count-minimal PipelineReport::parities), a local search over single-bit
/// tree edits accepts only moves that (a) keep the cover complete (exact
/// Statement-4 check) and (b) reduce the *synthesized* CED area. The tree
/// count never changes.
AreaAwareResult minimize_parity_area(const fsm::FsmCircuit& circuit,
                                     const DetectabilityTable& table,
                                     std::vector<ParityFunc> start,
                                     const AreaAwareOptions& opts = {});

}  // namespace ced::core
