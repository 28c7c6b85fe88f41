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
  return fsm::synthesize_fsm(f, fsm::EncodingKind::kBinary, {});
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
  return fsm::synthesize_fsm(f, fsm::EncodingKind::kBinary, {});
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

/// Which kinds of fault net a differential run covered.
struct FaultSites {
  bool primary_input = false;
  bool state_bit = false;
  bool output = false;
  bool internal = false;
};

/// Cone rows against the full-pass oracle simulate_all_inputs for every
/// fault of the uncollapsed list (a superset of the collapsed one, with
/// faults on every net) at every s-bit code: once over a trace of every code
/// (the cone path everywhere, reachable or not) and once over a trace of the
/// reachable codes only (the full-pass fallback at the others).
void expect_cone_rows_match_oracle(const fsm::FsmCircuit& c,
                                   FaultSites& sites) {
  const auto faults = enumerate_stuck_at(c.netlist, FaultListOptions{false});
  std::vector<std::uint64_t> codes;
  for (std::uint64_t code = 0; code <= c.state_mask(); ++code) {
    codes.push_back(code);
  }
  const auto reachable = reachable_codes(c, c.enc.reset_code);
  const GoldenTrace every(c, codes);
  const GoldenTrace reach(c, reachable);
  for (const std::uint64_t code : codes) {
    ASSERT_NE(every.find(code), nullptr);
    EXPECT_EQ(*every.find(code), simulate_all_inputs(c, code));
  }

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
    for (const std::uint64_t code : codes) {
      const auto oracle = simulate_all_inputs(c, code, &inj);
      EXPECT_EQ(cone.rows(code), oracle) << f.to_string() << " code " << code;
      EXPECT_EQ(mixed.rows(code), oracle)
          << f.to_string() << " code " << code;
    }
    EXPECT_EQ(cone.counters().cone_rows, codes.size());
    EXPECT_EQ(cone.counters().full_rows, 0u);
    EXPECT_EQ(mixed.counters().cone_rows, reachable.size());
    EXPECT_EQ(mixed.counters().full_rows, codes.size() - reachable.size());
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
}

TEST(FaultSim, ConeRowsMatchFullPassAcrossBatches) {
  FaultSites sites;
  expect_cone_rows_match_oracle(wide_circuit(), sites);
  EXPECT_TRUE(sites.primary_input);
  EXPECT_TRUE(sites.state_bit);
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
