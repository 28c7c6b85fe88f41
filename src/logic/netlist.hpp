#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/digest.hpp"

namespace ced::logic {

/// Gate primitives of the target cell library.
enum class GateType : std::uint8_t {
  kInput,
  kConst0,
  kConst1,
  kBuf,
  kNot,
  kAnd,
  kOr,
  kNand,
  kNor,
  kXor,
  kXnor,
};

const char* gate_type_name(GateType t);

/// One gate instance. Fan-ins refer to earlier gate ids (the netlist is
/// topologically ordered by construction).
struct Gate {
  GateType type = GateType::kInput;
  std::vector<std::uint32_t> fanins;
};

/// Word-parallel value of a logic gate (kBuf .. kXnor) whose fan-in words
/// are get(f) for each f in `fanins`. Shared by the full netlist pass and
/// the cone-restricted fault simulator (sim/fault_sim.hpp), so both apply
/// one gate semantics. Inputs and constants have no fan-ins: callers
/// supply their words.
template <typename Get>
std::uint64_t gate_word(GateType type, std::span<const std::uint32_t> fanins,
                        Get&& get) {
  std::uint64_t v = 0;
  switch (type) {
    case GateType::kBuf:
      return get(fanins[0]);
    case GateType::kNot:
      return ~get(fanins[0]);
    case GateType::kAnd:
    case GateType::kNand:
      v = ~std::uint64_t{0};
      for (const std::uint32_t f : fanins) v &= get(f);
      return type == GateType::kNand ? ~v : v;
    case GateType::kOr:
    case GateType::kNor:
      for (const std::uint32_t f : fanins) v |= get(f);
      return type == GateType::kNor ? ~v : v;
    case GateType::kXor:
    case GateType::kXnor:
      for (const std::uint32_t f : fanins) v ^= get(f);
      return type == GateType::kXnor ? ~v : v;
    case GateType::kInput:
    case GateType::kConst0:
    case GateType::kConst1:
      break;
  }
  return v;
}

/// A forced value on one net during evaluation, used for fault injection.
/// `value_word` is replicated across the 64 parallel patterns (all-zeros for
/// stuck-at-0, all-ones for stuck-at-1).
struct Injection {
  std::uint32_t net = 0;
  std::uint64_t value_word = 0;
};

/// A combinational gate-level netlist with named primary inputs/outputs.
///
/// Evaluation is 64-way pattern-parallel: each net carries a 64-bit word, bit
/// t of which is the net's value under pattern t. This is the workhorse of
/// the fault simulator.
class Netlist {
 public:
  /// Appends a primary input; returns its net id.
  std::uint32_t add_input(std::string name);
  /// Appends a constant net.
  std::uint32_t add_const(bool value);
  /// Appends a gate over existing nets; returns its net id.
  /// And/Or/Nand/Nor accept >= 1 fan-ins; Xor/Xnor >= 1; Not/Buf exactly 1.
  std::uint32_t add_gate(GateType type, std::vector<std::uint32_t> fanins);
  /// Declares an existing net as a primary output.
  void mark_output(std::uint32_t net, std::string name);

  std::size_t num_nets() const { return gates_.size(); }
  std::size_t num_inputs() const { return inputs_.size(); }
  std::size_t num_outputs() const { return outputs_.size(); }
  const std::vector<std::uint32_t>& inputs() const { return inputs_; }
  const std::vector<std::uint32_t>& outputs() const { return outputs_; }
  const Gate& gate(std::uint32_t net) const { return gates_[net]; }
  const std::string& input_name(std::size_t i) const { return input_names_[i]; }
  const std::string& output_name(std::size_t i) const {
    return output_names_[i];
  }

  /// Number of logic gates (excludes inputs, constants and buffers).
  std::size_t gate_count() const;

  /// Evaluates all nets for 64 parallel input patterns.
  ///
  /// `input_words[i]` is the word for the i-th primary input (declaration
  /// order). `values` is resized to num_nets(); `values[net]` receives the
  /// word of each net. At most one injection is applied (nullptr = fault-free).
  void eval(std::span<const std::uint64_t> input_words,
            std::vector<std::uint64_t>& values,
            const Injection* injection = nullptr) const;

  /// Convenience single-pattern evaluation: bit i of `assignment` is input i.
  /// Returns one word whose bit o is output o (declaration order);
  /// requires num_outputs() <= 64.
  std::uint64_t eval_single(std::uint64_t assignment,
                            const Injection* injection = nullptr) const;

 private:
  std::vector<Gate> gates_;
  std::vector<std::uint32_t> inputs_;
  std::vector<std::string> input_names_;
  std::vector<std::uint32_t> outputs_;
  std::vector<std::string> output_names_;
};

/// Absorbs the netlist (each net's gate type and fanins, then the outputs)
/// into a content digest; the extraction and campaign keys both use it.
void absorb_netlist(Digest128& d, const Netlist& net);

}  // namespace ced::logic
