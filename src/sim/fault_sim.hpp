#pragma once

#include <algorithm>
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

/// Lanes of `batch` that carry real inputs when a machine has `num_inputs`
/// of them: all 64 unless the last batch is partial.
inline std::uint64_t lane_mask(std::uint64_t num_inputs, std::uint64_t batch) {
  const std::uint64_t in_batch =
      std::min<std::uint64_t>(64, num_inputs - batch * 64);
  return in_batch == 64 ? ~std::uint64_t{0}
                        : (std::uint64_t{1} << in_batch) - 1;
}

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

  /// State codes reachable from `reset_code` under every input sequence,
  /// in increasing order: a search over rows(), so every reachable code's
  /// row is simulated once and stays cached.
  std::vector<std::uint64_t> reachable(std::uint64_t reset_code);

 private:
  const fsm::FsmCircuit& circuit_;
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> cache_;
};

/// Write-only simulator counters (obs): faulty rows derived through the
/// fault's cone or by a full netlist pass, the cone rows never built
/// because they equal the golden row, cone gates evaluated, 64-input
/// batches skipped because the fault net already carried its stuck value
/// there, and the campaign's faulty-row checker batches evaluated on the
/// checker's response cone or by a full checker pass
/// (sim/protected_machine.hpp). Results never depend on them.
struct SimCounters {
  std::uint64_t cone_rows = 0;
  std::uint64_t full_rows = 0;
  std::uint64_t dormant_rows = 0;
  std::uint64_t cone_gates = 0;
  std::uint64_t batches_skipped = 0;
  std::uint64_t checker_cone_batches = 0;
  std::uint64_t checker_full_batches = 0;

  /// Calls fn(metric name, value) for each counter, for the obs exporters.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    fn("ced_sim_cone_rows_total", cone_rows);
    fn("ced_sim_full_rows_total", full_rows);
    fn("ced_sim_dormant_rows_total", dormant_rows);
    fn("ced_sim_cone_gates_total", cone_gates);
    fn("ced_sim_batches_skipped_total", batches_skipped);
    fn("ced_sim_checker_cone_batches_total", checker_cone_batches);
    fn("ced_sim_checker_full_batches_total", checker_full_batches);
  }

  SimCounters& operator+=(const SimCounters& o) {
    cone_rows += o.cone_rows;
    full_rows += o.full_rows;
    dormant_rows += o.dormant_rows;
    cone_gates += o.cone_gates;
    batches_skipped += o.batches_skipped;
    checker_cone_batches += o.checker_cone_batches;
    checker_full_batches += o.checker_full_batches;
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

  /// Traces the codes reachable from `reset_code` under every input
  /// sequence, found in the same netlist passes that trace them: the
  /// reachable_codes set, simulated once. Past kMaxStates codes the search
  /// goes on with full passes and traces no more.
  GoldenTrace(const fsm::FsmCircuit& c, std::uint64_t reset_code);

  static constexpr std::size_t kMaxStates = std::size_t{1} << 16;

  const fsm::FsmCircuit& circuit() const { return circuit_; }

  /// The codes the trace was built for, untraced ones included: the given
  /// list, or the reachable set in increasing order.
  const std::vector<std::uint64_t>& codes() const { return codes_; }

  /// Golden row of a traced code; nullptr for any other code.
  const std::vector<std::uint64_t>* find(std::uint64_t state_code) const;

  /// Bytes held by the rows, the interned net values and the index.
  std::size_t bytes() const;

 private:
  friend class FaultyCache;

  /// Fault-free words of `net` at traced state `si`, one per batch.
  const std::uint64_t* words(std::uint32_t si, std::uint32_t net) const {
    return values_.data() + net_base_[net] +
           std::size_t{index_[std::size_t{si} * num_nets_ + net]} * batches_;
  }

  /// Both constructors: traces `state_codes` in order, or, when `follow`,
  /// the codes reachable from state_codes[0] as the search finds them.
  GoldenTrace(const fsm::FsmCircuit& c,
              std::span<const std::uint64_t> state_codes, bool follow);

  const fsm::FsmCircuit& circuit_;
  std::size_t num_nets_ = 0;
  std::size_t batches_ = 0;
  std::vector<std::uint64_t> codes_;
  std::unordered_map<std::uint64_t, std::uint32_t> slot_;  ///< code -> si
  std::vector<std::vector<std::uint64_t>> rows_;           ///< per si
  std::vector<std::size_t> net_base_;   ///< net -> first word in values_
  std::vector<std::uint64_t> values_;   ///< distinct vectors, net-major
  std::vector<std::uint16_t> index_;    ///< si * num_nets + net -> vector
  /// Fanout lists in CSR form (net -> nets reading it), for cone building.
  std::vector<std::uint32_t> fanout_begin_;
  std::vector<std::uint32_t> fanouts_;
};

/// The golden trace of a run's activation states: the codes reachable from
/// reset, found as they are traced (GoldenTrace(c, reset_code)), or, with
/// `reachable_only` false, every s-bit code in increasing order.
GoldenTrace activation_trace(const fsm::FsmCircuit& c, bool reachable_only);

/// One faulty row's observable bits as pattern words, the checker's inputs
/// (sim/protected_machine.hpp): FaultyCache::build fills it at a traced
/// code, where the cone already holds them, for every 64-input batch in
/// which the row differs from the golden row.
struct RowWords {
  /// False for a row built by the full pass: no words were kept.
  bool traced = false;
  std::vector<std::uint32_t> batches;  ///< the changed batches, ascending
  /// words[k * n + o]: observable bit o's word in batches[k] (n observable
  /// bits; lanes past the last input are unspecified).
  std::vector<std::uint64_t> words;
};

/// Faulty transition rows of one fault, memoized per state code. At a code
/// in the golden trace the row is the golden row XOR the differences on the
/// fault's cone outputs: only the nets in the fault's fanout cone are
/// re-evaluated, in topological order, each gate over every batch from the
/// row's first to its last active one, reading every other net's words
/// from the trace; a batch where the fault net already carries the forced
/// value is the golden batch unchanged. Codes outside the trace (faulty
/// walks into states the trace does not hold) take the full netlist pass.
/// Either way the row equals simulate_all_inputs(circuit, code,
/// &injection).
class FaultyCache {
 public:
  FaultyCache(const GoldenTrace& trace, const logic::Injection& injection);

  /// The faulty row at `state_code`, or nullptr at a traced code where the
  /// fault changes no observable bit under any input: the row there is the
  /// golden row (GoldenTrace::find), and it is never built. A code outside
  /// the trace always gets its row. The pointer stays valid for the
  /// cache's lifetime.
  const std::vector<std::uint64_t>* row(std::uint64_t state_code);

  /// The row at `state_code` built afresh, for a caller that memoizes rows
  /// itself: empty where row() gives nullptr, row()'s row otherwise. The
  /// cache's memo is neither read nor filled; the counters count it. With
  /// `words`, a non-empty row also gets its pattern words there (`traced`
  /// false at a code outside the trace).
  std::vector<std::uint64_t> build(std::uint64_t state_code,
                                   RowWords* words = nullptr);

  const SimCounters& counters() const { return counters_; }

 private:
  /// A cone gate's fan-in: (slot * batches) << 1, where the cone net's
  /// words start in val_, for a cone net; (net << 1) | 1 for a net read
  /// from the trace.
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
  /// Cone values of the current row: slot i's word in batch b at
  /// val_[i * batches + b].
  std::vector<std::uint64_t> val_;
  /// Per srcs_ entry, the words it reads in the current row (rows whose
  /// active batches span more than one; empty on single-batch machines).
  std::vector<const std::uint64_t*> ins_;
  /// code -> row; an empty row marks a dormant traced code.
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
/// every input sequence: GoldenCache::reachable on a cache of its own.
std::vector<std::uint64_t> reachable_codes(const fsm::FsmCircuit& c,
                                           std::uint64_t reset_code);

}  // namespace ced::sim
