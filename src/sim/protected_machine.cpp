#include "sim/protected_machine.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace ced::sim {
namespace {

/// The checker's observable-bit input words for `batch`: word o carries
/// bit o of responses[batch * 64 + t] at pattern t.
std::array<std::uint64_t, 64> observable_words(
    std::span<const std::uint64_t> responses, std::uint64_t batch) {
  std::array<std::uint64_t, 64> block{};
  const std::uint64_t base = batch * 64;
  std::copy_n(responses.begin() + static_cast<std::ptrdiff_t>(base),
              std::min<std::uint64_t>(64, responses.size() - base),
              block.begin());
  transpose64(block);
  return block;
}

/// One full checker pass: every checker net's word for the 64 inputs of
/// `batch` at `state_code`, the observable bits taken from `responses`.
void eval_checker(const core::CedHardware& hw, std::uint64_t state_code,
                  std::span<const std::uint64_t> responses,
                  std::uint64_t batch, std::vector<std::uint64_t>& words,
                  std::vector<std::uint64_t>& values) {
  words.resize(static_cast<std::size_t>(hw.r + hw.s + hw.n));
  batch_input_words(hw.r, hw.s, state_code, batch, words);
  const std::array<std::uint64_t, 64> block =
      observable_words(responses, batch);
  std::copy_n(block.begin(), hw.n,
              words.begin() + static_cast<std::ptrdiff_t>(hw.r + hw.s));
  hw.checker.eval(words, values);
}

std::uint32_t error_net(const core::CedHardware& hw) {
  return hw.checker
      .outputs()[static_cast<std::size_t>(2 * hw.q + (hw.two_rail ? 2 : 0))];
}

const fsm::FsmCircuit& checked(const fsm::FsmCircuit& circuit,
                               const core::CedHardware& hw) {
  if (hw.r != circuit.r() || hw.s != circuit.s() || hw.n != circuit.n()) {
    throw std::invalid_argument(
        "ProtectedMachine: checker interface does not match the circuit");
  }
  return circuit;
}

}  // namespace

std::vector<std::uint64_t> checker_error_mask(
    const core::CedHardware& hw, std::uint64_t state_code,
    std::span<const std::uint64_t> responses) {
  const std::uint32_t error = error_net(hw);
  std::vector<std::uint64_t> mask((responses.size() + 63) / 64, 0);
  std::vector<std::uint64_t> words;
  std::vector<std::uint64_t> values;
  for (std::uint64_t b = 0; b < mask.size(); ++b) {
    eval_checker(hw, state_code, responses, b, words, values);
    mask[b] = values[error] & lane_mask(responses.size(), b);
  }
  return mask;
}

ProtectedMachine::ProtectedMachine(const fsm::FsmCircuit& circuit,
                                   const core::CedHardware& hw)
    : circuit_(checked(circuit, hw)),
      hw_(hw),
      trace_(circuit, circuit.enc.reset_code) {
  // The response cone. Net ids are topologically ordered, so one ascending
  // pass finds every gate downstream of an observable bit, and each cone
  // gate's fan-ins already have their slots.
  const logic::Netlist& nl = hw_.checker;
  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  std::vector<std::uint32_t> slot(nl.num_nets(), kNone);
  std::vector<std::uint32_t> outside_index(nl.num_nets(), kNone);
  for (int o = 0; o < hw_.n; ++o) {
    slot[nl.inputs()[static_cast<std::size_t>(hw_.r + hw_.s + o)]] =
        static_cast<std::uint32_t>(o);
  }
  const auto source = [&](std::uint32_t net) {
    if (slot[net] != kNone) return slot[net] << 1;
    if (outside_index[net] == kNone) {
      outside_index[net] = static_cast<std::uint32_t>(outside_.size());
      outside_.push_back(net);
    }
    return (outside_index[net] << 1) | 1;
  };
  for (std::uint32_t net = 0; net < nl.num_nets(); ++net) {
    const logic::Gate& g = nl.gate(net);
    if (std::none_of(g.fanins.begin(), g.fanins.end(),
                     [&](std::uint32_t f) { return slot[f] != kNone; })) {
      continue;
    }
    slot[net] = static_cast<std::uint32_t>(hw_.n) +
                static_cast<std::uint32_t>(cone_.size());
    ConeGate cg{g.type, static_cast<std::uint32_t>(srcs_.size()), 0};
    for (const std::uint32_t f : g.fanins) srcs_.push_back(source(f));
    cg.end = static_cast<std::uint32_t>(srcs_.size());
    cone_.push_back(cg);
  }
  const std::uint32_t error = error_net(hw_);
  error_src_ = source(error);

  // The golden pass: each reachable code's verdicts, and the outside nets'
  // words the cone reads there (they do not depend on the response).
  const std::uint64_t batches = (num_inputs() + 63) / 64;
  std::vector<std::uint64_t> words;
  std::vector<std::uint64_t> values;
  for (const std::uint64_t code : reachable()) {
    Golden g;
    const std::vector<std::uint64_t>* traced = trace_.find(code);
    g.row.response = traced != nullptr ? *traced
                                       : simulate_all_inputs(circuit_, code);
    g.row.error.resize(batches);
    g.outside.reserve(batches * outside_.size());
    for (std::uint64_t b = 0; b < batches; ++b) {
      eval_checker(hw_, code, g.row.response, b, words, values);
      g.row.error[b] = values[error] & lane_mask(num_inputs(), b);
      for (const std::uint32_t net : outside_) g.outside.push_back(values[net]);
    }
    golden_.emplace(code, std::move(g));
  }
}

std::vector<std::uint64_t> ProtectedMachine::faulty_verdicts(
    std::uint64_t state_code, std::span<const std::uint64_t> responses,
    const RowWords& words, SimCounters& counters) const {
  if (!words.traced) {
    counters.checker_full_batches += (responses.size() + 63) / 64;
    return checker_error_mask(hw_, state_code, responses);
  }
  // The trace holds reachable codes only, each with its golden pass.
  const Golden& golden = golden_.find(state_code)->second;
  std::vector<std::uint64_t> mask = golden.row.error;
  const auto n = static_cast<std::size_t>(hw_.n);
  std::vector<std::uint64_t> cone(n + cone_.size());
  counters.checker_cone_batches += words.batches.size();
  for (std::size_t k = 0; k < words.batches.size(); ++k) {
    const std::uint64_t b = words.batches[k];
    std::copy_n(words.words.begin() + static_cast<std::ptrdiff_t>(k * n), n,
                cone.begin());
    const std::size_t outside = b * outside_.size();
    const auto word = [&](std::uint32_t e) {
      return (e & 1) != 0 ? golden.outside[outside + (e >> 1)] : cone[e >> 1];
    };
    for (std::size_t i = 0; i < cone_.size(); ++i) {
      const ConeGate& g = cone_[i];
      cone[n + i] = logic::gate_word(
          g.type,
          std::span<const std::uint32_t>(srcs_.data() + g.begin,
                                         g.end - g.begin),
          word);
    }
    mask[b] = word(error_src_) & lane_mask(responses.size(), b);
  }
  return mask;
}

const TransitionRow* ProtectedMachine::golden_row(
    std::uint64_t state_code) const {
  const auto it = golden_.find(state_code);
  return it == golden_.end() ? nullptr : &it->second.row;
}

FaultSession::FaultSession(const ProtectedMachine& pm,
                           const logic::Injection* injection)
    : pm_(pm) {
  if (injection != nullptr) faulty_sim_.emplace(pm.trace(), *injection);
}

const TransitionRow& FaultSession::faulty_row(std::uint64_t state_code) {
  auto it = faulty_.find(state_code);
  if (it == faulty_.end()) {
    if (!faulty_sim_) {
      throw std::logic_error("FaultSession: faulty_row without an injection");
    }
    // Built for this memo alone, so the row moves in without a copy.
    // Empty at a traced code the fault leaves golden: no checker pass.
    TransitionRow row;
    row.response = faulty_sim_->build(state_code, &words_);
    if (!row.response.empty()) {
      row.error = pm_.faulty_verdicts(state_code, row.response, words_,
                                      checker_counters_);
    }
    it = faulty_.emplace(state_code, std::move(row)).first;
  }
  return it->second.response.empty() ? *pm_.golden_row(state_code)
                                     : it->second;
}

const TransitionRow& FaultSession::golden_row(std::uint64_t state_code) {
  if (const TransitionRow* shared = pm_.golden_row(state_code)) {
    return *shared;
  }
  auto it = golden_local_.find(state_code);
  if (it == golden_local_.end()) {
    TransitionRow row;
    row.response = simulate_all_inputs(pm_.circuit(), state_code);
    row.error = checker_error_mask(pm_.hw(), state_code, row.response);
    it = golden_local_.emplace(state_code, std::move(row)).first;
  }
  return it->second;
}

}  // namespace ced::sim
