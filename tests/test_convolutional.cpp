#include "core/convolutional.hpp"

#include <gtest/gtest.h>

#include "benchdata/handwritten.hpp"
#include "core/extract.hpp"
#include "core/rng.hpp"
#include "kiss/kiss.hpp"
#include "sim/faults.hpp"

namespace ced::core {
namespace {

struct Harness {
  fsm::FsmCircuit circuit;
  std::vector<sim::StuckAtFault> faults;
  DetectabilityTable p1;
};

Harness harness_for(const std::string& name) {
  const fsm::Fsm f =
      fsm::Fsm::from_kiss(kiss::parse(benchdata::handwritten_kiss(name)));
  Harness h{fsm::synthesize_fsm(f, fsm::EncodingKind::kBinary), {}, {}};
  h.faults = sim::enumerate_stuck_at(h.circuit.netlist);
  ExtractOptions opts;
  opts.latency = 1;
  h.p1 = extract_cases(h.circuit, h.faults, opts);
  return h;
}

TEST(Convolutional, RejectsBadInputs) {
  const Harness h = harness_for("traffic");
  EXPECT_THROW(synthesize_convolutional(h.circuit, h.p1, 0),
               std::invalid_argument);
  ExtractOptions o2;
  o2.latency = 2;
  const auto p2 = extract_cases(h.circuit, h.faults, o2);
  EXPECT_THROW(synthesize_convolutional(h.circuit, p2, 2),
               std::invalid_argument);
}

TEST(Convolutional, FaultFreeRunsStaySilent) {
  const Harness h = harness_for("vending");
  const ConvolutionalCed ced = synthesize_convolutional(h.circuit, h.p1, 2);
  ConvolutionalChecker checker(ced);
  Rng rng(5);
  std::uint64_t state = h.circuit.enc.reset_code;
  const std::uint64_t mask = (std::uint64_t{1} << h.circuit.r()) - 1;
  for (int t = 0; t < 256; ++t) {
    const std::uint64_t a = rng.next() & mask;
    const std::uint64_t obs = h.circuit.eval(a, state);
    EXPECT_FALSE(checker.step(a, state, obs)) << "t=" << t;
    state = h.circuit.next_state_of(obs);
  }
}

class ConvWindows : public ::testing::TestWithParam<int> {};

TEST_P(ConvWindows, EveryActivationDetectedWithinTwoWindows) {
  const int window = GetParam();
  const Harness h = harness_for("link_rx");
  const ConvolutionalCed ced =
      synthesize_convolutional(h.circuit, h.p1, window);
  Rng rng(7);
  const std::uint64_t mask = (std::uint64_t{1} << h.circuit.r()) - 1;
  std::size_t activations = 0, escapes = 0;
  for (const auto& f : h.faults) {
    const logic::Injection inj = f.injection();
    ConvolutionalChecker checker(ced);
    std::uint64_t state = h.circuit.enc.reset_code;
    int pending = -1;
    for (int t = 0; t < 128; ++t) {
      const std::uint64_t a = rng.next() & mask;
      const std::uint64_t obs = h.circuit.eval(a, state, &inj);
      const bool err = checker.step(a, state, obs);
      if (obs != h.circuit.eval(a, state) && pending < 0) {
        pending = t;
        ++activations;
      }
      if (err) {
        pending = -1;
        state = h.circuit.enc.reset_code;
        checker.reset();
        continue;
      }
      if (pending >= 0 && t - pending + 1 >= 2 * window) {
        ++escapes;
        pending = -1;
        state = h.circuit.enc.reset_code;
        checker.reset();
        continue;
      }
      state = h.circuit.next_state_of(obs);
    }
  }
  EXPECT_GT(activations, 0u);
  // The full-rank tap matrix makes in-window cancellation impossible, so
  // a latency-1 key cover detects every activation by the next sampling
  // point (at most 2*window - 1 transitions later).
  EXPECT_EQ(escapes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Windows, ConvWindows, ::testing::Values(1, 2, 3, 4));

TEST(Convolutional, CostGrowsWithWindow) {
  const Harness h = harness_for("arbiter");
  const auto& lib = logic::CellLibrary::mcnc();
  double prev = 0;
  for (int k = 1; k <= 4; ++k) {
    const ConvolutionalCed ced = synthesize_convolutional(h.circuit, h.p1, k);
    const double area = ced.cost(lib).area;
    EXPECT_GT(area, prev);
    prev = area;
    EXPECT_EQ(ced.registers,
              static_cast<std::size_t>(k) * ced.keys.size());
  }
}

}  // namespace
}  // namespace ced::core
