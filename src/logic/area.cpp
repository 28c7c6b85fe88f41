#include "logic/area.hpp"

#include <stdexcept>

namespace ced::logic {

const CellLibrary& CellLibrary::mcnc() {
  static const CellLibrary lib{};
  return lib;
}

double CellLibrary::gate_area(GateType type, int fanin) const {
  if (fanin > kMaxFanin) {
    throw std::invalid_argument("gate wider than library max fan-in");
  }
  const double extra = per_extra_fanin * static_cast<double>(fanin > 2 ? fanin - 2 : 0);
  switch (type) {
    case GateType::kInput:
    case GateType::kConst0:
    case GateType::kConst1:
      return 0.0;
    case GateType::kBuf:
      return buf;
    case GateType::kNot:
      return inv;
    case GateType::kAnd:
      return fanin == 1 ? buf : and2 + extra;
    case GateType::kOr:
      return fanin == 1 ? buf : or2 + extra;
    case GateType::kNand:
      return fanin == 1 ? inv : nand2 + extra;
    case GateType::kNor:
      return fanin == 1 ? inv : nor2 + extra;
    case GateType::kXor:
      return fanin == 1 ? buf : xor2 + extra;
    case GateType::kXnor:
      return fanin == 1 ? inv : xnor2 + extra;
  }
  return 0.0;
}

AreaReport measure_area(const Netlist& n, const CellLibrary& lib,
                        std::size_t extra_dffs) {
  AreaReport r;
  r.gates = n.gate_count();
  for (std::uint32_t id = 0; id < n.num_nets(); ++id) {
    const Gate& g = n.gate(id);
    r.area += lib.gate_area(g.type, static_cast<int>(g.fanins.size()));
  }
  r.area += lib.dff * static_cast<double>(extra_dffs);
  return r;
}

}  // namespace ced::logic
