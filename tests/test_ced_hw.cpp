#include "core/parity_synth.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <tuple>

#include "benchdata/handwritten.hpp"
#include "core/duplication.hpp"
#include "kiss/kiss.hpp"
#include "sim/fault_sim.hpp"

namespace ced::core {
namespace {

fsm::FsmCircuit circuit_for(const std::string& name) {
  const fsm::Fsm f =
      fsm::Fsm::from_kiss(kiss::parse(benchdata::handwritten_kiss(name)));
  return fsm::synthesize_fsm(f, fsm::EncodingKind::kBinary);
}

TEST(CedSynth, CompactionComputesChosenParities) {
  const fsm::FsmCircuit c = circuit_for("vending");
  const std::vector<ParityFunc> parities{0b0101, 0b0011};
  const CedHardware hw = synthesize_ced(c, parities);
  EXPECT_EQ(hw.q, 2);
  EXPECT_EQ(hw.hold_registers, 4u);

  // Feed arbitrary observable words; compacted outputs must equal the
  // parity of the selected bits.
  for (std::uint64_t obs = 0; obs < 16; ++obs) {
    const std::uint64_t assignment = 0 | (0 << hw.r) | (obs << (hw.r + hw.s));
    const std::uint64_t outs = hw.checker.eval_single(assignment);
    for (int l = 0; l < hw.q; ++l) {
      EXPECT_EQ((outs >> l) & 1,
                static_cast<std::uint64_t>(
                    std::popcount(parities[static_cast<std::size_t>(l)] & obs) & 1));
    }
  }
}

TEST(CedSynth, PredictionMatchesGoldenParityOnReachable) {
  const fsm::FsmCircuit c = circuit_for("link_rx");
  const std::vector<ParityFunc> parities{0b101, 0b011};
  const CedHardware hw = synthesize_ced(c, parities);
  for (std::uint64_t code :
       sim::reachable_codes(c, c.enc.reset_code)) {
    for (std::uint64_t a = 0; a < (std::uint64_t{1} << c.r()); ++a) {
      const std::uint64_t golden = c.eval(a, code);
      const std::uint64_t assignment =
          a | (code << hw.r);  // observable inputs zero: irrelevant to pred
      const std::uint64_t outs = hw.checker.eval_single(assignment);
      for (int l = 0; l < hw.q; ++l) {
        EXPECT_EQ((outs >> (hw.q + l)) & 1,
                  static_cast<std::uint64_t>(
                      std::popcount(parities[static_cast<std::size_t>(l)] &
                                    golden) &
                      1))
            << "code " << code << " input " << a << " tree " << l;
      }
    }
  }
}

// On every reachable transition of each hand-written machine, for both
// comparator styles and with and without unreachable-state don't-cares,
// the error bit rises exactly when some chosen parity of the observed
// response differs from that of the fault-free response (Fig. 3).
class CedSynthAgree : public ::testing::TestWithParam<
                          std::tuple<const char*, bool, bool>> {};

TEST_P(CedSynthAgree, ErrorSignalExactlyFlagsParityMismatch) {
  const auto& [name, two_rail, dc_unreachable] = GetParam();
  const fsm::FsmCircuit c = circuit_for(name);
  const ParityFunc all = (ParityFunc{1} << c.n()) - 1;
  const std::vector<ParityFunc> parities{
      all, all & 0x5555555555555555ull, ParityFunc{1} << (c.n() - 1)};
  CedSynthOptions opts;
  opts.two_rail = two_rail;
  opts.dc_unreachable = dc_unreachable;
  const CedHardware hw = synthesize_ced(c, parities, opts);
  EXPECT_EQ(hw.q, static_cast<int>(parities.size()));
  EXPECT_EQ(hw.two_rail, two_rail);
  EXPECT_EQ(hw.hold_registers, 2 * parities.size());
  for (std::uint64_t code : sim::reachable_codes(c, c.enc.reset_code)) {
    for (std::uint64_t a = 0; a < (std::uint64_t{1} << c.r()); ++a) {
      const std::uint64_t golden = c.eval(a, code);
      for (std::uint64_t obs = 0; obs <= all; ++obs) {
        bool mismatch = false;
        for (ParityFunc beta : parities) {
          mismatch |= (std::popcount(beta & (obs ^ golden)) & 1) != 0;
        }
        ASSERT_EQ(hw.error_asserted(a, code, obs), mismatch)
            << name << " code " << code << " input " << a << " obs " << obs;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Machines, CedSynthAgree,
    ::testing::Combine(::testing::Values("seq_detect", "traffic", "vending",
                                         "arbiter", "modulo5", "link_rx"),
                       ::testing::Bool(), ::testing::Bool()));

TEST(CedSynth, NoParitiesMeansNoChecking) {
  const fsm::FsmCircuit c = circuit_for("traffic");
  const CedHardware hw = synthesize_ced(c, {});
  EXPECT_EQ(hw.q, 0);
  EXPECT_FALSE(hw.error_asserted(0, 0, 0b10101));
  EXPECT_EQ(hw.hold_registers, 0u);
}

TEST(CedSynth, CostIncludesHoldRegisters) {
  const fsm::FsmCircuit c = circuit_for("vending");
  const std::vector<ParityFunc> parities{0b0101};
  const CedHardware hw = synthesize_ced(c, parities);
  const auto& lib = logic::CellLibrary::mcnc();
  const auto with = hw.cost(lib);
  const auto without = logic::measure_area(hw.checker, lib, 0);
  EXPECT_DOUBLE_EQ(with.area, without.area + 2 * lib.dff);
}

TEST(CedSynth, DcUnreachableNeverHurtsReachablePrediction) {
  // Synthesizing with and without the unreachable-DC optimization must
  // agree on reachable states.
  const fsm::FsmCircuit c = circuit_for("modulo5");
  const std::vector<ParityFunc> parities{0b1011};
  CedSynthOptions with_dc, without_dc;
  without_dc.dc_unreachable = false;
  const CedHardware hw1 = synthesize_ced(c, parities, with_dc);
  const CedHardware hw2 = synthesize_ced(c, parities, without_dc);
  for (std::uint64_t code : sim::reachable_codes(c, c.enc.reset_code)) {
    for (std::uint64_t a = 0; a < (std::uint64_t{1} << c.r()); ++a) {
      const std::uint64_t obs = c.eval(a, code);
      EXPECT_EQ(hw1.error_asserted(a, code, obs),
                hw2.error_asserted(a, code, obs));
      EXPECT_FALSE(hw1.error_asserted(a, code, obs));
    }
  }
}

TEST(CedSynth, TwoRailCheckerMatchesPlainErrorSignal) {
  const fsm::FsmCircuit c = circuit_for("vending");
  const std::vector<ParityFunc> parities{0b0101, 0b0011, 0b1001};
  CedSynthOptions plain, tr;
  tr.two_rail = true;
  const CedHardware hw_plain = synthesize_ced(c, parities, plain);
  const CedHardware hw_tr = synthesize_ced(c, parities, tr);
  EXPECT_TRUE(hw_tr.two_rail);
  for (std::uint64_t code : sim::reachable_codes(c, c.enc.reset_code)) {
    for (std::uint64_t a = 0; a < (std::uint64_t{1} << c.r()); ++a) {
      for (std::uint64_t obs = 0; obs < (std::uint64_t{1} << c.n());
           obs += 3) {
        EXPECT_EQ(hw_tr.error_asserted(a, code, obs),
                  hw_plain.error_asserted(a, code, obs))
            << code << " " << a << " " << obs;
      }
    }
  }
}

TEST(CedSynth, TwoRailRailsAreComplementaryFaultFree) {
  const fsm::FsmCircuit c = circuit_for("traffic");
  const std::vector<ParityFunc> parities{0b11, 0b101};
  CedSynthOptions tr;
  tr.two_rail = true;
  const CedHardware hw = synthesize_ced(c, parities, tr);
  const int q = hw.q;
  for (std::uint64_t code : sim::reachable_codes(c, c.enc.reset_code)) {
    for (std::uint64_t a = 0; a < (std::uint64_t{1} << c.r()); ++a) {
      const std::uint64_t obs = c.eval(a, code);
      const std::uint64_t assignment =
          a | (code << hw.r) | (obs << (hw.r + hw.s));
      const std::uint64_t outs = hw.checker.eval_single(assignment);
      const bool rail0 = (outs >> (2 * q)) & 1;
      const bool rail1 = (outs >> (2 * q + 1)) & 1;
      EXPECT_NE(rail0, rail1);  // complementary = code output
      EXPECT_FALSE(hw.error_asserted(a, code, obs));
    }
  }
}

TEST(CedSynth, TwoRailCostsMoreThanPlain) {
  const fsm::FsmCircuit c = circuit_for("link_rx");
  const std::vector<ParityFunc> parities{0b101, 0b011, 0b110};
  CedSynthOptions plain, tr;
  tr.two_rail = true;
  const auto& lib = logic::CellLibrary::mcnc();
  const double a_plain = synthesize_ced(c, parities, plain).cost(lib).area;
  const double a_tr = synthesize_ced(c, parities, tr).cost(lib).area;
  EXPECT_GT(a_tr, a_plain);
}

TEST(Duplication, CostsScaleWithCircuit) {
  const fsm::FsmCircuit small = circuit_for("seq_detect");
  const fsm::FsmCircuit big = circuit_for("arbiter");
  const auto& lib = logic::CellLibrary::mcnc();
  const auto rs = duplication_baseline(small, lib);
  const auto rb = duplication_baseline(big, lib);
  EXPECT_EQ(rs.functions, static_cast<std::size_t>(small.n()));
  EXPECT_EQ(rb.functions, static_cast<std::size_t>(big.n()));
  EXPECT_GT(rb.area, rs.area);
  EXPECT_GT(rs.gates, 0u);
}

TEST(Duplication, CostsAtLeastOriginalLogic) {
  const fsm::FsmCircuit c = circuit_for("link_rx");
  const auto& lib = logic::CellLibrary::mcnc();
  const auto dup = duplication_baseline(c, lib);
  const auto orig = logic::measure_area(c.netlist, lib, 0);
  EXPECT_GE(dup.area, orig.area);  // copy + comparator + shadow register
}

}  // namespace
}  // namespace ced::core
