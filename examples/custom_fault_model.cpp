// The paper's method works for ANY restricted fault model, not just
// stuck-at (§1, §2): the error detectability table only needs the
// error-free and erroneous responses per transition. This example protects
// an FSM against a *custom* fault model — input-line bridging faults
// (a pair of primary inputs shorted to AND of their values) — by reusing
// the whole pipeline with a user-supplied fault list.
//
// Bridging is modeled on the netlist by rewriting: a fresh netlist is built
// in which the victim input is replaced by AND(victim, aggressor).

#include <cstdio>
#include <vector>

#include "benchdata/handwritten.hpp"
#include "core/algorithm1.hpp"
#include "core/extract.hpp"
#include "core/parity_synth.hpp"
#include "fsm/synthesize.hpp"
#include "kiss/kiss.hpp"
#include "sim/fault_sim.hpp"

using namespace ced;

namespace {

/// A stuck-at injection cannot express a bridge, but the detectability
/// table only needs *responses*. We therefore simulate the bridged machine
/// directly: for each state, evaluate the circuit on the bridged input
/// vector (victim forced to victim AND aggressor).
std::vector<std::uint64_t> bridged_rows(const fsm::FsmCircuit& c,
                                        std::uint64_t state_code, int victim,
                                        int aggressor) {
  std::vector<std::uint64_t> rows(std::uint64_t{1} << c.r());
  for (std::uint64_t a = 0; a < rows.size(); ++a) {
    const std::uint64_t va = (a >> victim) & 1;
    const std::uint64_t ag = (a >> aggressor) & 1;
    std::uint64_t bridged = a;
    bridged &= ~(std::uint64_t{1} << victim);
    bridged |= (va & ag) << victim;
    rows[a] = c.eval(bridged, state_code);
  }
  return rows;
}

}  // namespace

int main() {
  const fsm::Fsm machine =
      fsm::Fsm::from_kiss(kiss::parse(benchdata::handwritten_kiss("vending")));
  const fsm::FsmCircuit circuit =
      fsm::synthesize_fsm(machine, fsm::EncodingKind::kBinary);
  std::printf("machine: %d inputs, %d states -> %d observable bits\n",
              circuit.r(), machine.num_states(), circuit.n());

  // Build the error detectability table for every ordered bridge pair,
  // latency p = 2, directly from response differences (the general recipe
  // of Section 3.1 — EC = difference sets along every faulty path).
  const int p = 2;
  core::DetectabilityTable table;
  table.num_bits = circuit.n();
  table.latency = p;

  sim::GoldenCache golden(circuit);
  const auto codes = sim::reachable_codes(circuit, circuit.enc.reset_code);
  std::size_t num_bridges = 0;
  for (int v = 0; v < circuit.r(); ++v) {
    for (int g = 0; g < circuit.r(); ++g) {
      if (v == g) continue;
      ++num_bridges;
      for (std::uint64_t c0 : codes) {
        const auto good = golden.rows(c0);
        const auto bad = bridged_rows(circuit, c0, v, g);
        for (std::uint64_t a = 0; a < good.size(); ++a) {
          if (good[a] == bad[a]) continue;
          // One-step lookahead (p = 2): enumerate every second input.
          const std::uint64_t h1 = circuit.next_state_of(bad[a]);
          const auto good1 = golden.rows(h1);
          const auto bad1 = bridged_rows(circuit, h1, v, g);
          for (std::uint64_t a2 = 0; a2 < good1.size(); ++a2) {
            core::ErroneousCase ec;  // packed: the first word is nonzero
            ec.diff[0] = good[a] ^ bad[a];
            ec.diff[1] = good1[a2] ^ bad1[a2];
            table.cases.push_back(ec);
          }
        }
      }
    }
  }
  // Deduplicate (the library's extractor does this internally; here we do
  // it by sorting).
  std::sort(table.cases.begin(), table.cases.end(),
            [](const core::ErroneousCase& x, const core::ErroneousCase& y) {
              return x.diff < y.diff;
            });
  table.cases.erase(std::unique(table.cases.begin(), table.cases.end()),
                    table.cases.end());
  std::printf("%zu bridge faults -> %zu distinct erroneous cases (p = %d)\n",
              num_bridges, table.cases.size(), p);

  // Minimize parity functions and synthesize the checker.
  const auto parities = core::minimize_parity_functions(table);
  std::printf("parity trees needed: %zu\n", parities.size());
  const core::CedHardware hw = core::synthesize_ced(circuit, parities);
  const auto cost = hw.cost(logic::CellLibrary::mcnc());
  std::printf("CED hardware: %zu gates, area %.1f\n", cost.gates, cost.area);

  // Spot-verify: every bridge activation is caught within p transitions.
  std::size_t activations = 0, detected_in_bound = 0;
  for (int v = 0; v < circuit.r(); ++v) {
    for (int g = 0; g < circuit.r(); ++g) {
      if (v == g) continue;
      for (std::uint64_t c0 : codes) {
        const auto good = golden.rows(c0);
        const auto bad = bridged_rows(circuit, c0, v, g);
        for (std::uint64_t a = 0; a < good.size(); ++a) {
          if (good[a] == bad[a]) continue;
          ++activations;
          if (hw.error_asserted(a, c0, bad[a])) {
            ++detected_in_bound;
            continue;
          }
          // Must be caught on every second step.
          const std::uint64_t h1 = circuit.next_state_of(bad[a]);
          const auto bad1 = bridged_rows(circuit, h1, v, g);
          bool all = true;
          for (std::uint64_t a2 = 0; a2 < bad1.size(); ++a2) {
            if (!hw.error_asserted(a2, h1, bad1[a2])) all = false;
          }
          if (all) ++detected_in_bound;
        }
      }
    }
  }
  std::printf("activations: %zu, detected within p=%d: %zu -> %s\n",
              activations, p, detected_in_bound,
              activations == detected_in_bound ? "OK" : "FAILED");
  return activations == detected_in_bound ? 0 : 1;
}
