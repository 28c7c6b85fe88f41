#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "fsm/synthesize.hpp"
#include "sim/faults.hpp"

namespace ced::sim {

/// Writes the netlist input words of one 64-input batch: words[0 .. r)
/// carry input value batch * 64 + t at pattern t (input bit i < 6 is a
/// fixed stripe, bits >= 6 are constant within a batch) and
/// words[r .. r + s) the bits of `state_code`. Every batched evaluator (the
/// FSM rows here, the checker verdicts in protected_machine) starts here.
void batch_input_words(int r, int s, std::uint64_t state_code,
                       std::uint64_t batch, std::span<std::uint64_t> words);

/// In-place 64x64 bit-matrix transpose: bit t of m[o] becomes bit o of
/// m[t]. Converts between per-net pattern words and per-input packed
/// observable words, in either direction.
void transpose64(std::array<std::uint64_t, 64>& m);

/// Computes the packed observable word (next-state bits then outputs) of one
/// FSM transition for every concrete input value 0 .. 2^r - 1, starting from
/// `state_code`, optionally with a fault injected. 64 inputs are evaluated
/// per full netlist pass. This is the golden engine and the test oracle for
/// the cone-restricted rows of FaultyCache.
std::vector<std::uint64_t> simulate_all_inputs(
    const fsm::FsmCircuit& c, std::uint64_t state_code,
    const logic::Injection* injection = nullptr);

/// Lazy cache of fault-free transition responses keyed by present-state
/// code, for golden-only users (parity prediction, reachability) and for
/// codes outside a GoldenTrace.
class GoldenCache {
 public:
  explicit GoldenCache(const fsm::FsmCircuit& c) : circuit_(c) {}

  const std::vector<std::uint64_t>& rows(std::uint64_t state_code);
  const fsm::FsmCircuit& circuit() const { return circuit_; }

 private:
  const fsm::FsmCircuit& circuit_;
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> cache_;
};

/// Write-only simulator counters (obs): faulty rows derived through the
/// fault's cone or by a full netlist pass, cone gates evaluated, and
/// 64-input batches skipped because the fault net already carried its
/// stuck value there. Results never depend on them.
struct SimCounters {
  std::uint64_t cone_rows = 0;
  std::uint64_t full_rows = 0;
  std::uint64_t cone_gates = 0;
  std::uint64_t batches_skipped = 0;

  /// Calls fn(metric name, value) for each counter, for the obs exporters.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    fn("ced_sim_cone_rows_total", cone_rows);
    fn("ced_sim_full_rows_total", full_rows);
    fn("ced_sim_cone_gates_total", cone_gates);
    fn("ced_sim_batches_skipped_total", batches_skipped);
  }

  SimCounters& operator+=(const SimCounters& o) {
    cone_rows += o.cone_rows;
    full_rows += o.full_rows;
    cone_gates += o.cone_gates;
    batches_skipped += o.batches_skipped;
    return *this;
  }
};

/// Gauge name for GoldenTrace::bytes() (obs).
inline constexpr const char* kGoldenTraceBytesGauge =
    "ced_sim_golden_trace_bytes";

/// The compact golden trace: for a fixed set of state codes, the fault-free
/// response rows plus the fault-free value of every net in every 64-input
/// batch, which is what a cone-restricted faulty row reads outside the
/// fault's cone. Net values are interned per net: each net keeps its
/// distinct per-state value vectors (one word per batch) once, and a 16-bit
/// index per (state, net) names the vector. Immutable after construction,
/// so any number of threads may read one trace concurrently.
class GoldenTrace {
 public:
  /// Traces `state_codes` (at most kMaxStates of them; later codes are
  /// left out and take the full-pass fallback).
  GoldenTrace(const fsm::FsmCircuit& c,
              std::span<const std::uint64_t> state_codes);

  static constexpr std::size_t kMaxStates = std::size_t{1} << 16;

  const fsm::FsmCircuit& circuit() const { return circuit_; }

  /// Golden row of a traced code; nullptr for any other code.
  const std::vector<std::uint64_t>* find(std::uint64_t state_code) const;

  /// Bytes held by the rows, the interned net values and the index.
  std::size_t bytes() const;

 private:
  friend class FaultyCache;

  /// Fault-free word of `net` in `batch` at traced state `si`.
  std::uint64_t word(std::uint32_t si, std::uint32_t net,
                     std::uint64_t batch) const {
    return values_[net_base_[net] +
                   std::size_t{index_[std::size_t{si} * num_nets_ + net]} *
                       batches_ +
                   batch];
  }

  const fsm::FsmCircuit& circuit_;
  std::size_t num_nets_ = 0;
  std::size_t batches_ = 0;
  std::unordered_map<std::uint64_t, std::uint32_t> slot_;  ///< code -> si
  std::vector<std::vector<std::uint64_t>> rows_;           ///< per si
  std::vector<std::size_t> net_base_;   ///< net -> first word in values_
  std::vector<std::uint64_t> values_;   ///< distinct vectors, net-major
  std::vector<std::uint16_t> index_;    ///< si * num_nets + net -> vector
  /// Fanout lists in CSR form (net -> nets reading it), for cone building.
  std::vector<std::uint32_t> fanout_begin_;
  std::vector<std::uint32_t> fanouts_;
};

/// Faulty transition rows of one fault, memoized per state code. At a code
/// in the golden trace the row is the golden row XOR the differences on the
/// fault's cone outputs: only the nets in the fault's fanout cone are
/// re-evaluated, in topological order, reading every other net from the
/// trace, and a batch where the fault net already carries the forced value
/// is the golden batch unchanged. Codes outside the trace (faulty walks into
/// states the trace does not hold) take the full netlist pass. Either way
/// the row equals simulate_all_inputs(circuit, code, &injection).
class FaultyCache {
 public:
  FaultyCache(const GoldenTrace& trace, const logic::Injection& injection);

  const std::vector<std::uint64_t>& rows(std::uint64_t state_code);

  /// The row at `state_code`, computed without memoizing it (for callers
  /// that keep their own per-code memo).
  std::vector<std::uint64_t> simulate(std::uint64_t state_code);

  const SimCounters& counters() const { return counters_; }

 private:
  /// A cone gate's fan-in: (slot << 1) for a cone net, (net << 1) | 1 for a
  /// net read from the trace.
  struct ConeGate {
    logic::GateType type;
    std::uint32_t begin, end;  ///< range in srcs_
  };

  const GoldenTrace& trace_;
  logic::Injection injection_;
  std::vector<std::uint32_t> cone_;  ///< cone nets ascending; [0] = fault net
  std::vector<ConeGate> gates_;      ///< cone_[1..] in order
  std::vector<std::uint32_t> srcs_;
  /// (observable bit, cone slot) for every output driven from the cone.
  std::vector<std::pair<int, std::uint32_t>> outs_;
  std::vector<std::uint64_t> val_;  ///< cone values of the current batch
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> cache_;
  SimCounters counters_;
};

/// A worker's view of the golden model: reads hit the shared GoldenTrace
/// (immutable, so lock-free), and codes outside it — faulty walks can drag
/// the reference through states the trace does not hold — fall back to a
/// private per-worker cache.
class GoldenView {
 public:
  explicit GoldenView(const GoldenTrace& shared)
      : shared_(shared), local_(shared.circuit()) {}

  const std::vector<std::uint64_t>& rows(std::uint64_t state_code) {
    if (const auto* r = shared_.find(state_code)) return *r;
    return local_.rows(state_code);
  }

 private:
  const GoldenTrace& shared_;
  GoldenCache local_;
};

/// State codes reachable in the fault-free circuit from `reset_code` under
/// every input sequence (BFS over all concrete inputs).
std::vector<std::uint64_t> reachable_codes(const fsm::FsmCircuit& c,
                                           std::uint64_t reset_code);

}  // namespace ced::sim
