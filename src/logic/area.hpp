#pragma once

#include "logic/netlist.hpp"

namespace ced::logic {

/// A standard-cell area model in the spirit of the MCNC `mcnc.genlib`
/// library that SIS maps to. Areas are in normalized units (inverter = 1.0).
/// Cells take at most kMaxFanin inputs; gate_area throws for a wider gate,
/// which the synthesizer never emits (it builds trees of kMaxFanin cells).
struct CellLibrary {
  double inv = 1.0;
  double buf = 1.0;
  double nand2 = 1.5;
  double nor2 = 1.5;
  double and2 = 2.0;
  double or2 = 2.0;
  double xor2 = 2.5;
  double xnor2 = 2.5;
  double dff = 4.5;
  /// Extra area per fan-in beyond 2 (wider cells up to kMaxFanin).
  double per_extra_fanin = 0.5;

  /// The default library used across the experiments.
  static const CellLibrary& mcnc();

  /// Area of one gate instance with `fanin` inputs (>= 1 for logic gates).
  double gate_area(GateType type, int fanin) const;
};

/// Report of cost metrics for a netlist.
struct AreaReport {
  std::size_t gates = 0;  ///< Logic gate count (excl. inputs/consts/bufs).
  double area = 0.0;      ///< Standard-cell area in library units.
};

/// Sums gate areas over the netlist; `extra_dffs` adds flip-flop area (the
/// netlist itself is purely combinational; registers live at its boundary).
AreaReport measure_area(const Netlist& n, const CellLibrary& lib,
                        std::size_t extra_dffs = 0);

}  // namespace ced::logic
