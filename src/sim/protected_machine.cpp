#include "sim/protected_machine.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace ced::sim {
namespace {

/// The checker verdicts for `responses` at `state_code`, one word per
/// 64-input batch. Given a reference row at the same code, a batch whose
/// responses equal the reference's keeps its verdict word: the checker
/// sees identical inputs there. Every other batch is one checker pass.
std::vector<std::uint64_t> checker_errors(
    const core::CedHardware& hw, std::uint64_t state_code,
    std::span<const std::uint64_t> responses,
    const TransitionRow* reference) {
  const logic::Netlist& nl = hw.checker;
  const std::uint64_t num_inputs = responses.size();
  const std::size_t error_index =
      static_cast<std::size_t>(2 * hw.q + (hw.two_rail ? 2 : 0));
  const std::uint32_t error_net = nl.outputs()[error_index];

  std::vector<std::uint64_t> mask((num_inputs + 63) / 64, 0);
  std::vector<std::uint64_t> words(static_cast<std::size_t>(hw.r + hw.s + hw.n));
  std::vector<std::uint64_t> values;
  for (std::uint64_t batch = 0; batch < mask.size(); ++batch) {
    const std::uint64_t base = batch * 64;
    const std::uint64_t in_batch =
        std::min<std::uint64_t>(64, num_inputs - base);
    const auto batch_responses = responses.subspan(base, in_batch);
    if (reference != nullptr &&
        std::equal(batch_responses.begin(), batch_responses.end(),
                   reference->response.begin() +
                       static_cast<std::ptrdiff_t>(base))) {
      mask[batch] = reference->error[batch];
      continue;
    }
    batch_input_words(hw.r, hw.s, state_code, batch, words);
    // Observable bits: transposed, word r+s+o carries bit o of
    // responses[base + t] at pattern position t.
    std::array<std::uint64_t, 64> block{};
    std::copy(batch_responses.begin(), batch_responses.end(), block.begin());
    transpose64(block);
    std::copy_n(block.begin(), hw.n,
                words.begin() + static_cast<std::ptrdiff_t>(hw.r + hw.s));
    nl.eval(words, values);
    std::uint64_t err = values[error_net];
    if (in_batch < 64) err &= (std::uint64_t{1} << in_batch) - 1;
    mask[batch] = err;
  }
  return mask;
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
  return checker_errors(hw, state_code, responses, nullptr);
}

ProtectedMachine::ProtectedMachine(const fsm::FsmCircuit& circuit,
                                   const core::CedHardware& hw)
    : circuit_(checked(circuit, hw)),
      hw_(hw),
      reachable_(reachable_codes(circuit, circuit.enc.reset_code)),
      trace_(circuit, reachable_) {
  for (const std::uint64_t code : reachable_) {
    TransitionRow row;
    const std::vector<std::uint64_t>* traced = trace_.find(code);
    row.response = traced != nullptr ? *traced
                                     : simulate_all_inputs(circuit_, code);
    row.error = checker_error_mask(hw_, code, row.response);
    golden_.emplace(code, std::move(row));
  }
}

const TransitionRow* ProtectedMachine::golden_row(
    std::uint64_t state_code) const {
  const auto it = golden_.find(state_code);
  return it == golden_.end() ? nullptr : &it->second;
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
    TransitionRow row;
    // Empty at a traced code the fault leaves golden: no copy, no checker.
    if (const std::vector<std::uint64_t>* response =
            faulty_sim_->row(state_code)) {
      row.response = *response;
      row.error = checker_errors(pm_.hw(), state_code, row.response,
                                 pm_.golden_row(state_code));
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
