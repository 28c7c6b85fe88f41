#include "core/parity_synth.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/parallel.hpp"
#include "logic/factor.hpp"
#include "logic/minimize.hpp"
#include "logic/opt.hpp"
#include "sim/fault_sim.hpp"

namespace ced::core {

bool CedHardware::error_asserted(std::uint64_t input,
                                 std::uint64_t state_code,
                                 std::uint64_t observable) const {
  const std::uint64_t assignment =
      input | (state_code << r) | (observable << (r + s));
  const std::uint64_t outs = checker.eval_single(assignment);
  // Output order: q compacted, q predicted, [rail0, rail1,] error.
  const int error_index = 2 * q + (two_rail ? 2 : 0);
  return ((outs >> error_index) & 1) != 0;
}

CedSynthesizer::CedSynthesizer(const fsm::FsmCircuit& circuit,
                               const CedSynthOptions& opts, int threads)
    : opts_(opts),
      threads_(threads),
      r_(circuit.r()),
      s_(circuit.s()),
      n_(circuit.n()) {
  if (r_ + s_ + n_ > 62) {
    throw std::invalid_argument("synthesize_ced: checker input space too wide");
  }
  dc_ = logic::BitVec(std::size_t{1} << (r_ + s_));
  // The reachability search simulates every reachable code once; the rows
  // read below come from the same cache.
  sim::GoldenCache golden(circuit);
  const std::vector<std::uint64_t> reachable =
      golden.reachable(circuit.enc.reset_code);
  const std::uint64_t num_codes = std::uint64_t{1} << s_;
  const std::uint64_t num_inputs = std::uint64_t{1} << r_;
  for (std::uint64_t code = 0; code < num_codes; ++code) {
    if (opts_.dc_unreachable &&
        !std::ranges::binary_search(reachable, code)) {
      for (std::uint64_t a = 0; a < num_inputs; ++a) {
        dc_.set(circuit.enc.pack(a, code));
      }
      continue;
    }
    const auto& rows = golden.rows(code);
    for (std::uint64_t a = 0; a < num_inputs; ++a) {
      rows_.push_back({circuit.enc.pack(a, code), rows[a]});
    }
  }
}

const CedHardware& CedSynthesizer::synthesize(
    std::span<const ParityFunc> parities) {
  reused_ = hw_ && std::ranges::equal(hw_->parities, parities);
  if (reused_) return *hw_;

  // --- Prediction logic: parity of the fault-free response, as a function
  // of (input, present state). Each predictor is specified and minimized
  // on its own, so they run in parallel; the netlist is built serially
  // below, in mask order.
  std::vector<logic::FactorNode> preds(parities.size());
  parallel_for(threads_, parities.size(), [&](std::size_t l) {
    logic::SopSpec spec(r_ + s_);
    spec.dc = dc_;
    for (const GoldenRow& row : rows_) {
      if (std::popcount(parities[l] & row.response) & 1) spec.on.set(row.alpha);
    }
    preds[l] = logic::factor_cover(logic::minimize_espresso(spec));
  });

  CedHardware hw;
  hw.parities.assign(parities.begin(), parities.end());
  hw.r = r_;
  hw.s = s_;
  hw.n = n_;
  hw.q = static_cast<int>(parities.size());
  hw.hold_registers = 2 * parities.size();

  logic::Netlist& nl = hw.checker;
  std::vector<std::uint32_t> in_nets, st_nets, obs_nets;
  for (int i = 0; i < hw.r; ++i) {
    in_nets.push_back(nl.add_input("in" + std::to_string(i)));
  }
  for (int i = 0; i < hw.s; ++i) {
    st_nets.push_back(nl.add_input("st" + std::to_string(i)));
  }
  for (int i = 0; i < hw.n; ++i) {
    obs_nets.push_back(nl.add_input("b" + std::to_string(i)));
  }

  logic::SynthContext ctx(nl);

  // --- Compaction: one XOR tree per parity function.
  std::vector<std::uint32_t> compact_nets;
  for (std::size_t l = 0; l < parities.size(); ++l) {
    std::vector<std::uint32_t> taps;
    for (int j = 0; j < hw.n; ++j) {
      if ((parities[l] >> j) & 1) taps.push_back(obs_nets[static_cast<std::size_t>(j)]);
    }
    const std::uint32_t net = ctx.xor_tree(std::move(taps));
    compact_nets.push_back(net);
  }

  std::vector<std::uint32_t> pred_vars = in_nets;
  pred_vars.insert(pred_vars.end(), st_nets.begin(), st_nets.end());
  std::vector<std::uint32_t> pred_nets;
  for (const logic::FactorNode& pred : preds) {
    pred_nets.push_back(logic::synthesize_factor(ctx, pred, pred_vars));
  }

  // --- Comparator over the held values.
  for (std::size_t l = 0; l < compact_nets.size(); ++l) {
    nl.mark_output(compact_nets[l], "compact" + std::to_string(l));
  }
  for (std::size_t l = 0; l < pred_nets.size(); ++l) {
    nl.mark_output(pred_nets[l], "pred" + std::to_string(l));
  }
  if (opts_.two_rail && !parities.empty()) {
    hw.two_rail = true;
    // Dual-rail pairs (compact_l, NOT pred_l): complementary exactly when
    // compact_l == pred_l. A tree of two-rail checker cells reduces them
    // to one pair; rails equal <=> some pair was non-complementary.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
    for (std::size_t l = 0; l < compact_nets.size(); ++l) {
      pairs.emplace_back(compact_nets[l], ctx.inverted(pred_nets[l]));
    }
    while (pairs.size() > 1) {
      std::vector<std::pair<std::uint32_t, std::uint32_t>> next;
      for (std::size_t i = 0; i + 1 < pairs.size(); i += 2) {
        const auto [a0, a1] = pairs[i];
        const auto [b0, b1] = pairs[i + 1];
        const std::uint32_t z1 = nl.add_gate(
            logic::GateType::kOr,
            {nl.add_gate(logic::GateType::kAnd, {a1, b1}),
             nl.add_gate(logic::GateType::kAnd, {a0, b0})});
        const std::uint32_t z0 = nl.add_gate(
            logic::GateType::kOr,
            {nl.add_gate(logic::GateType::kAnd, {a1, b0}),
             nl.add_gate(logic::GateType::kAnd, {a0, b1})});
        next.emplace_back(z0, z1);
      }
      if (pairs.size() % 2 == 1) next.push_back(pairs.back());
      pairs = std::move(next);
    }
    nl.mark_output(pairs[0].first, "rail0");
    nl.mark_output(pairs[0].second, "rail1");
    nl.mark_output(
        nl.add_gate(logic::GateType::kXnor, {pairs[0].first, pairs[0].second}),
        "error");
  } else {
    const std::uint32_t error_net = ctx.comparator(compact_nets, pred_nets);
    nl.mark_output(error_net, "error");
  }
  hw.checker = logic::optimize_netlist(hw.checker);
  hw_ = std::move(hw);
  return *hw_;
}

CedHardware synthesize_ced(const fsm::FsmCircuit& circuit,
                           std::span<const ParityFunc> parities,
                           const CedSynthOptions& opts) {
  return CedSynthesizer(circuit, opts, 1).synthesize(parities);
}

}  // namespace ced::core
