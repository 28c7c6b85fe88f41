#include "sim/fault_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>

#include "benchdata/handwritten.hpp"
#include "kiss/kiss.hpp"
#include "sim/faults.hpp"

namespace ced::sim {
namespace {

fsm::FsmCircuit circuit_for(const std::string& name) {
  const fsm::Fsm f =
      fsm::Fsm::from_kiss(kiss::parse(benchdata::handwritten_kiss(name)));
  return fsm::synthesize_fsm(f, fsm::EncodingKind::kBinary);
}

TEST(Faults, EnumerationSkipsConstants) {
  logic::Netlist n;
  const auto a = n.add_input("a");
  n.add_const(true);
  const auto g = n.add_gate(logic::GateType::kNot, {a});
  n.mark_output(g, "f");
  FaultListOptions opts;
  opts.collapse = false;
  const auto faults = enumerate_stuck_at(n, opts);
  // 2 nets (input + gate) x 2 polarities.
  EXPECT_EQ(faults.size(), 4u);
  for (const auto& f : faults) {
    EXPECT_NE(n.gate(f.net).type, logic::GateType::kConst1);
  }
}

TEST(Faults, CollapsingDropsControlledInputFaults) {
  logic::Netlist n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto g = n.add_gate(logic::GateType::kAnd, {a, b});
  n.mark_output(g, "f");
  const auto full = enumerate_stuck_at(n, FaultListOptions{false});
  const auto collapsed = enumerate_stuck_at(n, FaultListOptions{true});
  EXPECT_EQ(full.size(), 6u);
  // a/SA0 and b/SA0 collapse onto g/SA0 (single-fanout nets).
  EXPECT_EQ(collapsed.size(), 4u);
  for (const auto& f : collapsed) {
    if (f.net == a || f.net == b) {
      EXPECT_TRUE(f.stuck_value);
    }
  }
}

TEST(Faults, CollapsingPreservesDetectionEquivalence) {
  // Every dropped fault must be output-equivalent to some kept fault on
  // every input pattern.
  const fsm::FsmCircuit c = circuit_for("traffic");
  const auto full = enumerate_stuck_at(c.netlist, FaultListOptions{false});
  const auto kept = enumerate_stuck_at(c.netlist, FaultListOptions{true});
  ASSERT_LT(kept.size(), full.size());

  const int vars = c.r() + c.s();
  auto signature = [&](const StuckAtFault& f) {
    std::vector<std::uint64_t> sig;
    const logic::Injection inj = f.injection();
    for (std::uint64_t a = 0; a < (std::uint64_t{1} << vars); ++a) {
      sig.push_back(c.netlist.eval_single(a, &inj));
    }
    return sig;
  };
  std::set<std::vector<std::uint64_t>> kept_sigs;
  for (const auto& f : kept) kept_sigs.insert(signature(f));
  for (const auto& f : full) {
    EXPECT_TRUE(kept_sigs.count(signature(f)))
        << "dropped fault " << f.to_string() << " has no kept equivalent";
  }
}

TEST(FaultSim, AllInputsMatchesSingleEval) {
  const fsm::FsmCircuit c = circuit_for("vending");
  for (std::uint64_t code = 0; code < 4; ++code) {
    const auto rows = simulate_all_inputs(c, code);
    for (std::uint64_t a = 0; a < rows.size(); ++a) {
      EXPECT_EQ(rows[a], c.eval(a, code)) << "code " << code << " a " << a;
    }
  }
}

TEST(FaultSim, AllInputsMatchesSingleEvalWithFault) {
  const fsm::FsmCircuit c = circuit_for("arbiter");
  const auto faults = enumerate_stuck_at(c.netlist);
  ASSERT_FALSE(faults.empty());
  // Spot-check a few faults across the list.
  for (std::size_t fi = 0; fi < faults.size(); fi += 7) {
    const logic::Injection inj = faults[fi].injection();
    const auto rows = simulate_all_inputs(c, 2, &inj);
    for (std::uint64_t a = 0; a < rows.size(); ++a) {
      EXPECT_EQ(rows[a], c.eval(a, 2, &inj));
    }
  }
}

// 7 inputs: 128 input combinations, two 64-input batches.
fsm::FsmCircuit wide_circuit() {
  const char* wide = R"(.i 7
.o 1
------- A B 1
------1 B A 0
------0 B B 1
.e
)";
  const fsm::Fsm f = fsm::Fsm::from_kiss(kiss::parse(wide));
  return fsm::synthesize_fsm(f, fsm::EncodingKind::kBinary);
}

TEST(FaultSim, WideInputMachineBatches) {
  // > 64 input combinations exercises the multi-batch path.
  const fsm::FsmCircuit c = wide_circuit();
  const auto rows = simulate_all_inputs(c, 0);
  ASSERT_EQ(rows.size(), 128u);
  for (std::uint64_t a = 0; a < 128; ++a) {
    EXPECT_EQ(rows[a], c.eval(a, 0));
  }
}

TEST(FaultSim, Transpose64SwapsRowsAndColumns) {
  std::array<std::uint64_t, 64> m{};
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (auto& w : m) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    w = x;
  }
  const auto original = m;
  transpose64(m);
  for (std::size_t t = 0; t < 64; ++t) {
    for (std::size_t o = 0; o < 64; ++o) {
      ASSERT_EQ((m[t] >> o) & 1, (original[o] >> t) & 1) << t << "," << o;
    }
  }
}

// 8 inputs: 256 input combinations, four 64-input batches. Input bits 6
// and 7 pick the batch and the transitions read both, so a fault on bit
// 6's net is active in two batches and skipped in the batch between them.
fsm::FsmCircuit four_batch_circuit() {
  const char* four = R"(.i 8
.o 2
0------0 A A 01
1------0 A B 10
-0----01 A C 11
-1----01 A A 00
------11 A B 01
------0- B C 10
0-----1- B A 01
1-----1- B B 11
-------0 C A 11
-0-----1 C B 00
-1-----1 C C 10
.e
)";
  const fsm::Fsm f = fsm::Fsm::from_kiss(kiss::parse(four));
  return fsm::synthesize_fsm(f, fsm::EncodingKind::kBinary);
}

/// Which kinds of fault net a differential run covered.
struct FaultSites {
  bool primary_input = false;
  bool state_bit = false;
  bool output = false;
  bool internal = false;
  bool dormant_row = false;  ///< some traced row equalled the golden row
  /// Some row skipped a batch that lies between two of its active ones.
  bool skipped_between = false;
};

/// Every net's fault-free word in every batch at every s-bit code, from
/// full netlist passes: [code * batches + batch][net].
std::vector<std::vector<std::uint64_t>> full_pass_values(
    const fsm::FsmCircuit& c) {
  const std::uint64_t batches = ((std::uint64_t{1} << c.r()) + 63) / 64;
  std::vector<std::vector<std::uint64_t>> out;
  std::vector<std::uint64_t> words(static_cast<std::size_t>(c.r() + c.s()));
  for (std::uint64_t code = 0; code <= c.state_mask(); ++code) {
    for (std::uint64_t b = 0; b < batches; ++b) {
      batch_input_words(c.r(), c.s(), code, b, words);
      out.emplace_back();
      c.netlist.eval(words, out.back());
    }
  }
  return out;
}

/// A FaultyCache's batch counters, and whether a row skipped a batch
/// between two active ones.
struct ConeCounts {
  std::uint64_t skipped = 0;
  std::uint64_t gates = 0;
  bool gap = false;
};

/// The batches_skipped and cone_gates a FaultyCache for `f` must count
/// over one row() at each of `traced` codes, worked out from the netlist
/// and the full passes: a fault whose fanout cone drives no output counts
/// nothing; otherwise a batch is active where the fault net's word differs
/// from the forced value on a live lane, every other batch is skipped, and
/// each active batch evaluates every cone gate.
ConeCounts expected_cone_counts(
    const fsm::FsmCircuit& c, const StuckAtFault& f,
    const std::vector<std::uint64_t>& traced,
    const std::vector<std::vector<std::uint64_t>>& values) {
  const logic::Netlist& nl = c.netlist;
  std::vector<char> in_cone(nl.num_nets(), 0);
  in_cone[f.net] = 1;
  std::uint64_t cone_gates = 0;
  for (std::uint32_t g = f.net + 1; g < nl.num_nets(); ++g) {
    const auto& fanins = nl.gate(g).fanins;
    if (std::any_of(fanins.begin(), fanins.end(),
                    [&](std::uint32_t x) { return in_cone[x] != 0; })) {
      in_cone[g] = 1;
      ++cone_gates;
    }
  }
  ConeCounts counts;
  if (std::none_of(nl.outputs().begin(), nl.outputs().end(),
                   [&](std::uint32_t o) { return in_cone[o] != 0; })) {
    return counts;
  }
  const std::uint64_t num_inputs = std::uint64_t{1} << c.r();
  const std::uint64_t batches = (num_inputs + 63) / 64;
  const std::uint64_t forced = f.injection().value_word;
  for (const std::uint64_t code : traced) {
    std::vector<bool> active;
    for (std::uint64_t b = 0; b < batches; ++b) {
      const std::uint64_t word = values[code * batches + b][f.net];
      active.push_back(((word ^ forced) & lane_mask(num_inputs, b)) != 0);
    }
    const auto n_active = static_cast<std::uint64_t>(
        std::count(active.begin(), active.end(), true));
    counts.skipped += batches - n_active;
    counts.gates += cone_gates * n_active;
    const auto first = std::find(active.begin(), active.end(), true);
    const auto last = std::find(active.rbegin(), active.rend(), true).base();
    counts.gap = counts.gap ||
                 (first < last && std::find(first, last, false) != last);
  }
  return counts;
}

/// Checks FaultyCache::row at `code` against the oracle row and returns
/// whether the code is dormant: traced, with the golden row as its oracle
/// row. Exactly there the cache returns nullptr; elsewhere it returns the
/// oracle row, and the same pointer on a repeated call.
bool expect_row_matches(FaultyCache& cache, const GoldenTrace& trace,
                        std::uint64_t code,
                        const std::vector<std::uint64_t>& oracle) {
  const std::vector<std::uint64_t>* golden = trace.find(code);
  const std::vector<std::uint64_t>* row = cache.row(code);
  const bool dormant = golden != nullptr && *golden == oracle;
  EXPECT_EQ(row == nullptr, dormant);
  if (row != nullptr) {
    EXPECT_EQ(*row, oracle);
  }
  EXPECT_EQ(cache.row(code), row);
  return dormant;
}

/// FaultyCache::build's pattern words against the oracle row: at a traced
/// code, one entry per batch where the oracle differs from the golden row,
/// ascending, holding each observable bit's word of the transposed oracle
/// on the batch's live lanes; at an untraced code, no words.
void expect_row_words_match(FaultyCache& cache, const GoldenTrace& trace,
                            std::uint64_t code,
                            const std::vector<std::uint64_t>& oracle, int n) {
  RowWords words;
  const std::vector<std::uint64_t> row = cache.build(code, &words);
  const std::vector<std::uint64_t>* golden = trace.find(code);
  EXPECT_EQ(words.traced, golden != nullptr);
  if (row.empty() || golden == nullptr) return;
  std::vector<std::uint32_t> changed;
  for (std::uint64_t a = 0; a < oracle.size(); ++a) {
    const auto b = static_cast<std::uint32_t>(a / 64);
    if (oracle[a] != (*golden)[a] && (changed.empty() || changed.back() != b)) {
      changed.push_back(b);
    }
  }
  ASSERT_EQ(words.batches, changed);
  const auto width = static_cast<std::size_t>(n);
  ASSERT_EQ(words.words.size(), changed.size() * width);
  for (std::size_t k = 0; k < changed.size(); ++k) {
    std::array<std::uint64_t, 64> block{};
    const std::uint64_t base = std::uint64_t{changed[k]} * 64;
    std::copy_n(oracle.begin() + static_cast<std::ptrdiff_t>(base),
                std::min<std::uint64_t>(64, oracle.size() - base),
                block.begin());
    transpose64(block);
    const std::uint64_t live = lane_mask(oracle.size(), changed[k]);
    for (std::size_t o = 0; o < width; ++o) {
      EXPECT_EQ(words.words[k * width + o] & live, block[o] & live)
          << "batch " << changed[k] << " bit " << o;
    }
  }
}

/// FaultyCache::row against the full-pass oracle simulate_all_inputs for
/// every fault of the uncollapsed list (a superset of the collapsed one,
/// with faults on every net) at every s-bit code: once over a trace of
/// every code (the cone path everywhere, reachable or not) and once over a
/// trace of the reachable codes only (the full-pass fallback at the
/// others). A returned row equals the oracle; nullptr comes back exactly at
/// the traced codes whose oracle row is the golden row; a repeated call
/// returns the memoized row; the row, dormant, skipped-batch and cone-gate
/// counters equal the ones worked out from full passes. The reachable trace
/// is the one that finds its codes as it traces them, and each row's
/// pattern words match the oracle's.
void expect_cone_rows_match_oracle(const fsm::FsmCircuit& c,
                                   FaultSites& sites) {
  const auto faults = enumerate_stuck_at(c.netlist, FaultListOptions{false});
  std::vector<std::uint64_t> codes;
  for (std::uint64_t code = 0; code <= c.state_mask(); ++code) {
    codes.push_back(code);
  }
  const auto reachable = reachable_codes(c, c.enc.reset_code);
  const GoldenTrace every(c, codes);
  const GoldenTrace reach(c, c.enc.reset_code);
  EXPECT_EQ(every.codes(), codes);
  EXPECT_EQ(reach.codes(), reachable);
  for (const std::uint64_t code : codes) {
    ASSERT_NE(every.find(code), nullptr);
    EXPECT_EQ(*every.find(code), simulate_all_inputs(c, code));
  }

  const auto values = full_pass_values(c);
  const auto& ins = c.netlist.inputs();
  const auto& outs = c.netlist.outputs();
  for (const StuckAtFault& f : faults) {
    const auto in = std::find(ins.begin(), ins.end(), f.net);
    if (in != ins.end()) {
      (in - ins.begin() < c.r() ? sites.primary_input : sites.state_bit) =
          true;
    } else if (std::find(outs.begin(), outs.end(), f.net) != outs.end()) {
      sites.output = true;
    } else {
      sites.internal = true;
    }
    const logic::Injection inj = f.injection();
    FaultyCache cone(every, inj);
    FaultyCache mixed(reach, inj);
    FaultyCache worded(every, inj);
    FaultyCache mixed_worded(reach, inj);
    std::uint64_t cone_dormant = 0, mixed_dormant = 0;
    for (const std::uint64_t code : codes) {
      SCOPED_TRACE(f.to_string() + " code " + std::to_string(code));
      const auto oracle = simulate_all_inputs(c, code, &inj);
      cone_dormant += expect_row_matches(cone, every, code, oracle);
      mixed_dormant += expect_row_matches(mixed, reach, code, oracle);
      expect_row_words_match(worded, every, code, oracle, c.n());
      expect_row_words_match(mixed_worded, reach, code, oracle, c.n());
    }
    EXPECT_EQ(cone.counters().cone_rows, codes.size());
    EXPECT_EQ(cone.counters().full_rows, 0u);
    EXPECT_EQ(cone.counters().dormant_rows, cone_dormant);
    EXPECT_EQ(mixed.counters().cone_rows, reachable.size());
    EXPECT_EQ(mixed.counters().full_rows, codes.size() - reachable.size());
    EXPECT_EQ(mixed.counters().dormant_rows, mixed_dormant);
    const ConeCounts every_counts = expected_cone_counts(c, f, codes, values);
    const ConeCounts reach_counts =
        expected_cone_counts(c, f, reachable, values);
    EXPECT_EQ(cone.counters().batches_skipped, every_counts.skipped);
    EXPECT_EQ(cone.counters().cone_gates, every_counts.gates);
    EXPECT_EQ(mixed.counters().batches_skipped, reach_counts.skipped);
    EXPECT_EQ(mixed.counters().cone_gates, reach_counts.gates);
    sites.dormant_row = sites.dormant_row || cone_dormant > 0;
    sites.skipped_between = sites.skipped_between || every_counts.gap;
  }
}

TEST(FaultSim, ConeRowsMatchFullPassOnHandwrittenMachines) {
  // Fewer than 64 inputs: every row is one partial batch.
  FaultSites sites;
  for (const char* name : {"vending", "arbiter", "traffic", "link_rx",
                           "modulo5", "seq_detect"}) {
    SCOPED_TRACE(name);
    expect_cone_rows_match_oracle(circuit_for(name), sites);
  }
  EXPECT_TRUE(sites.primary_input);
  EXPECT_TRUE(sites.state_bit);
  EXPECT_TRUE(sites.output);
  EXPECT_TRUE(sites.internal);
  EXPECT_TRUE(sites.dormant_row);
}

TEST(FaultSim, ConeRowsMatchFullPassAcrossBatches) {
  FaultSites sites;
  expect_cone_rows_match_oracle(wide_circuit(), sites);
  EXPECT_TRUE(sites.primary_input);
  EXPECT_TRUE(sites.state_bit);
  EXPECT_TRUE(sites.dormant_row);
}

TEST(FaultSim, ConeRowsMatchFullPassWithSkippedBatchesBetweenActiveOnes) {
  // A row evaluates its cone gates over every batch from its first active
  // one to its last; a skipped batch in between must add no difference.
  FaultSites sites;
  const fsm::FsmCircuit c = four_batch_circuit();
  ASSERT_EQ(c.r(), 8);
  expect_cone_rows_match_oracle(c, sites);
  EXPECT_TRUE(sites.primary_input);
  EXPECT_TRUE(sites.state_bit);
  EXPECT_TRUE(sites.internal);
  EXPECT_TRUE(sites.dormant_row);
  EXPECT_TRUE(sites.skipped_between);
}

TEST(FaultSim, GoldenCacheIsConsistent) {
  const fsm::FsmCircuit c = circuit_for("modulo5");
  GoldenCache cache(c);
  const auto& r1 = cache.rows(1);
  const auto& r2 = cache.rows(1);
  EXPECT_EQ(&r1, &r2);  // cached
  EXPECT_EQ(r1, simulate_all_inputs(c, 1));
}

TEST(FaultSim, ReachableCodesCoversStgReachable) {
  const fsm::FsmCircuit c = circuit_for("link_rx");
  const auto codes = reachable_codes(c, c.enc.reset_code);
  // All 7 STG states are reachable; their codes must all appear.
  std::set<std::uint64_t> set(codes.begin(), codes.end());
  for (std::uint64_t code : c.enc.encoding.codes) {
    EXPECT_TRUE(set.count(code)) << code;
  }
}

TEST(FaultSim, ReachableCodesClosedUnderTransition) {
  const fsm::FsmCircuit c = circuit_for("seq_detect");
  const auto codes = reachable_codes(c, c.enc.reset_code);
  std::set<std::uint64_t> set(codes.begin(), codes.end());
  for (std::uint64_t code : codes) {
    for (std::uint64_t a = 0; a < (std::uint64_t{1} << c.r()); ++a) {
      EXPECT_TRUE(set.count(c.next_state_of(c.eval(a, code))));
    }
  }
}

}  // namespace
}  // namespace ced::sim
