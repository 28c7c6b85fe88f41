#pragma once

#include "fsm/synthesize.hpp"
#include "logic/area.hpp"

namespace ced::core {

/// Cost of the classical duplicate-and-compare CED baseline the paper
/// measures against (§5): a full copy of the next-state/output logic with
/// its own shadow state register, plus an n-bit inequality comparator.
/// Every observable bit is independently predicted, so the scheme uses n
/// "functions" where the parity method uses q trees.
struct DuplicationReport {
  std::size_t functions = 0;        ///< n = s + o
  std::size_t gates = 0;            ///< duplicate logic + comparator gates
  double area = 0.0;                ///< incl. shadow state register DFFs
};

DuplicationReport duplication_baseline(const fsm::FsmCircuit& circuit,
                                       const logic::CellLibrary& lib);

}  // namespace ced::core
