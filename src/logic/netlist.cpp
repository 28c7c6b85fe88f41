#include "logic/netlist.hpp"

#include <stdexcept>

namespace ced::logic {

const char* gate_type_name(GateType t) {
  switch (t) {
    case GateType::kInput: return "input";
    case GateType::kConst0: return "const0";
    case GateType::kConst1: return "const1";
    case GateType::kBuf: return "buf";
    case GateType::kNot: return "not";
    case GateType::kAnd: return "and";
    case GateType::kOr: return "or";
    case GateType::kNand: return "nand";
    case GateType::kNor: return "nor";
    case GateType::kXor: return "xor";
    case GateType::kXnor: return "xnor";
  }
  return "?";
}

std::uint32_t Netlist::add_input(std::string name) {
  const auto id = static_cast<std::uint32_t>(gates_.size());
  gates_.push_back(Gate{GateType::kInput, {}});
  inputs_.push_back(id);
  input_names_.push_back(std::move(name));
  return id;
}

std::uint32_t Netlist::add_const(bool value) {
  const auto id = static_cast<std::uint32_t>(gates_.size());
  gates_.push_back(Gate{value ? GateType::kConst1 : GateType::kConst0, {}});
  return id;
}

std::uint32_t Netlist::add_gate(GateType type,
                                std::vector<std::uint32_t> fanins) {
  switch (type) {
    case GateType::kInput:
    case GateType::kConst0:
    case GateType::kConst1:
      throw std::invalid_argument("use add_input/add_const");
    case GateType::kBuf:
    case GateType::kNot:
      if (fanins.size() != 1) {
        throw std::invalid_argument("unary gate needs exactly one fan-in");
      }
      break;
    default:
      if (fanins.empty()) {
        throw std::invalid_argument("gate needs at least one fan-in");
      }
      break;
  }
  const auto id = static_cast<std::uint32_t>(gates_.size());
  for (auto f : fanins) {
    if (f >= id) throw std::invalid_argument("fan-in must be an earlier net");
  }
  gates_.push_back(Gate{type, std::move(fanins)});
  return id;
}

void Netlist::mark_output(std::uint32_t net, std::string name) {
  if (net >= gates_.size()) throw std::invalid_argument("unknown net");
  outputs_.push_back(net);
  output_names_.push_back(std::move(name));
}

std::size_t Netlist::gate_count() const {
  std::size_t n = 0;
  for (const auto& g : gates_) {
    switch (g.type) {
      case GateType::kInput:
      case GateType::kConst0:
      case GateType::kConst1:
      case GateType::kBuf:
        break;
      default:
        ++n;
    }
  }
  return n;
}

void Netlist::eval(std::span<const std::uint64_t> input_words,
                   std::vector<std::uint64_t>& values,
                   const Injection* injection) const {
  if (input_words.size() != inputs_.size()) {
    throw std::invalid_argument("wrong number of input words");
  }
  values.assign(gates_.size(), 0);
  std::size_t next_input = 0;
  const auto word = [&values](std::uint32_t f) { return values[f]; };
  for (std::uint32_t id = 0; id < gates_.size(); ++id) {
    const Gate& g = gates_[id];
    std::uint64_t v = 0;
    switch (g.type) {
      case GateType::kInput:
        v = input_words[next_input++];
        break;
      case GateType::kConst0:
        v = 0;
        break;
      case GateType::kConst1:
        v = ~std::uint64_t{0};
        break;
      default:
        v = gate_word(g.type, g.fanins, word);
        break;
    }
    if (injection != nullptr && injection->net == id) {
      v = injection->value_word;
    }
    values[id] = v;
  }
}

std::uint64_t Netlist::eval_single(std::uint64_t assignment,
                                   const Injection* injection) const {
  if (outputs_.size() > 64) {
    throw std::logic_error("eval_single supports at most 64 outputs");
  }
  thread_local std::vector<std::uint64_t> values;
  thread_local std::vector<std::uint64_t> input_words;
  input_words.assign(inputs_.size(), 0);
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    input_words[i] = (assignment >> i) & 1 ? ~std::uint64_t{0} : 0;
  }
  eval(input_words, values, injection);
  std::uint64_t out = 0;
  for (std::size_t o = 0; o < outputs_.size(); ++o) {
    out |= (values[outputs_[o]] & 1) << o;
  }
  return out;
}

void absorb_netlist(Digest128& d, const Netlist& net) {
  d.absorb(net.num_nets());
  for (std::uint32_t g = 0; g < net.num_nets(); ++g) {
    const Gate& gate = net.gate(g);
    d.absorb(static_cast<std::uint64_t>(gate.type));
    d.absorb(gate.fanins.size());
    for (const std::uint32_t f : gate.fanins) {
      d.absorb(static_cast<std::uint64_t>(f));
    }
  }
  d.absorb(net.num_outputs());
  for (const std::uint32_t o : net.outputs()) {
    d.absorb(static_cast<std::uint64_t>(o));
  }
}

}  // namespace ced::logic
