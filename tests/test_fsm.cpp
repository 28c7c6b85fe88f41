#include "fsm/fsm.hpp"

#include <gtest/gtest.h>

#include <set>

#include "benchdata/handwritten.hpp"
#include "fsm/analysis.hpp"
#include "fsm/encoded.hpp"
#include "fsm/encoding.hpp"
#include "fsm/synthesize.hpp"
#include "kiss/kiss.hpp"

namespace ced::fsm {
namespace {

Fsm load(const std::string& name) {
  return Fsm::from_kiss(kiss::parse(benchdata::handwritten_kiss(name)));
}

TEST(Fsm, FromKissBasics) {
  const Fsm f = load("seq_detect");
  EXPECT_EQ(f.num_inputs(), 1);
  EXPECT_EQ(f.num_outputs(), 1);
  EXPECT_EQ(f.num_states(), 4);
  EXPECT_EQ(f.state_name(f.reset_state()), "S0");
  EXPECT_EQ(f.edges().size(), 8u);
  EXPECT_TRUE(f.is_complete());
}

TEST(Fsm, EdgeForMatchesCubes) {
  const Fsm f = load("traffic");
  // State GREEN: input 11 goes to YELLOW, 0-/10 stay GREEN.
  const int green = 0;
  const auto e11 = f.edge_for(green, 0b11);
  ASSERT_TRUE(e11.has_value());
  EXPECT_EQ(f.state_name(f.edges()[*e11].to), "YELLOW");
  const auto e00 = f.edge_for(green, 0b00);
  ASSERT_TRUE(e00.has_value());
  EXPECT_EQ(f.state_name(f.edges()[*e00].to), "GREEN");
}

TEST(Fsm, RejectsNondeterminism) {
  const char* bad = ".i 1\n.o 1\n0 A B 0\n0 A C 0\n1 A A 0\n- B A 0\n- C A 0\n.e\n";
  EXPECT_THROW(Fsm::from_kiss(kiss::parse(bad)), std::runtime_error);
}

TEST(Fsm, AcceptsConsistentOverlap) {
  // Overlapping cubes that agree on next state and outputs are legal.
  const char* ok = ".i 2\n.o 1\n0- A B 1\n00 A B 1\n-- B A 0\n.e\n";
  const Fsm f = Fsm::from_kiss(kiss::parse(ok));
  EXPECT_EQ(f.num_states(), 2);
}

TEST(Fsm, ReachabilityFindsAllFromReset) {
  const Fsm f = load("arbiter");
  const auto reach = f.reachable_states();
  for (int s = 0; s < f.num_states(); ++s) {
    EXPECT_TRUE(reach[static_cast<std::size_t>(s)]) << f.state_name(s);
  }
}

TEST(Fsm, IncompleteDetection) {
  const char* partial = ".i 2\n.o 1\n00 A A 0\n-- B A 1\n01 A B 1\n.e\n";
  const Fsm f = Fsm::from_kiss(kiss::parse(partial));
  EXPECT_FALSE(f.is_complete());
}

TEST(Fsm, ToKissRoundTrip) {
  const Fsm f = load("vending");
  const Fsm g = Fsm::from_kiss(f.to_kiss());
  EXPECT_EQ(g.num_states(), f.num_states());
  EXPECT_EQ(g.edges().size(), f.edges().size());
  EXPECT_EQ(g.num_inputs(), f.num_inputs());
}

// ---- Encodings.

TEST(Encoding, BinaryCodesAreDense) {
  const Fsm f = load("link_rx");
  const StateEncoding e = encode_states(f, EncodingKind::kBinary);
  EXPECT_EQ(e.num_bits, 3);
  for (int s = 0; s < f.num_states(); ++s) {
    EXPECT_EQ(e.codes[static_cast<std::size_t>(s)],
              static_cast<std::uint64_t>(s));
  }
  EXPECT_EQ(e.state_of(2), 2);
  EXPECT_EQ(e.state_of(7), -1);
}

TEST(Encoding, GrayAdjacent) {
  const Fsm f = load("link_rx");
  const StateEncoding e = encode_states(f, EncodingKind::kGray);
  for (int s = 0; s + 1 < f.num_states(); ++s) {
    const auto d = e.codes[static_cast<std::size_t>(s)] ^
                   e.codes[static_cast<std::size_t>(s + 1)];
    EXPECT_EQ(std::popcount(d), 1);
  }
}

TEST(Encoding, OneHotWidthEqualsStates) {
  const Fsm f = load("traffic");
  const StateEncoding e = encode_states(f, EncodingKind::kOneHot);
  EXPECT_EQ(e.num_bits, f.num_states());
  std::set<std::uint64_t> codes(e.codes.begin(), e.codes.end());
  EXPECT_EQ(codes.size(), e.codes.size());
  for (auto c : codes) EXPECT_EQ(std::popcount(c), 1);
}

TEST(Encoding, SpreadCodesAreUnique) {
  const Fsm f = load("arbiter");
  const StateEncoding e = encode_states(f, EncodingKind::kSpread);
  std::set<std::uint64_t> codes(e.codes.begin(), e.codes.end());
  EXPECT_EQ(codes.size(), e.codes.size());
  EXPECT_EQ(e.num_bits, 3);
}

// ---- Encoded specification vs. the symbolic STG.

class EncodeAgree : public ::testing::TestWithParam<
                        std::tuple<const char*, EncodingKind>> {};

TEST_P(EncodeAgree, SpecMatchesStg) {
  const Fsm f = load(std::get<0>(GetParam()));
  const EncodedFsm e = encode_fsm(f, std::get<1>(GetParam()));
  const std::uint64_t inputs = std::uint64_t{1} << f.num_inputs();
  for (int st = 0; st < f.num_states(); ++st) {
    const std::uint64_t code = e.encoding.codes[static_cast<std::size_t>(st)];
    for (std::uint64_t a = 0; a < inputs; ++a) {
      const auto edge = f.edge_for(st, a);
      const std::uint64_t alpha = e.pack(a, code);
      if (!edge) {
        for (const auto& spec : e.next_state) EXPECT_TRUE(spec.dc.test(alpha));
        for (const auto& spec : e.outputs) EXPECT_TRUE(spec.dc.test(alpha));
        continue;
      }
      const Edge& ed = f.edges()[*edge];
      const std::uint64_t next_code =
          e.encoding.codes[static_cast<std::size_t>(ed.to)];
      for (int b = 0; b < e.num_state_bits; ++b) {
        const bool want = (next_code >> b) & 1;
        EXPECT_EQ(e.next_state[static_cast<std::size_t>(b)].on.test(alpha),
                  want);
        EXPECT_FALSE(
            e.next_state[static_cast<std::size_t>(b)].dc.test(alpha));
      }
      for (int b = 0; b < e.num_outputs; ++b) {
        const char c = ed.output[static_cast<std::size_t>(b)];
        const auto& spec = e.outputs[static_cast<std::size_t>(b)];
        if (c == '-') {
          EXPECT_TRUE(spec.dc.test(alpha) || spec.on.test(alpha));
        } else {
          EXPECT_EQ(spec.on.test(alpha), c == '1');
          EXPECT_FALSE(spec.dc.test(alpha));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Machines, EncodeAgree,
    ::testing::Combine(::testing::Values("seq_detect", "traffic", "vending",
                                         "arbiter", "modulo5", "link_rx"),
                       ::testing::Values(EncodingKind::kBinary,
                                         EncodingKind::kGray,
                                         EncodingKind::kSpread)));

// ---- Synthesized netlist agrees with the STG on every specified
// transition (for all encodings).

class SynthAgree : public ::testing::TestWithParam<
                       std::tuple<const char*, EncodingKind>> {};

TEST_P(SynthAgree, NetlistImplementsStg) {
  const Fsm f = load(std::get<0>(GetParam()));
  const FsmCircuit c = synthesize_fsm(f, std::get<1>(GetParam()));
  const std::uint64_t inputs = std::uint64_t{1} << f.num_inputs();
  for (int st = 0; st < f.num_states(); ++st) {
    const std::uint64_t code =
        c.enc.encoding.codes[static_cast<std::size_t>(st)];
    for (std::uint64_t a = 0; a < inputs; ++a) {
      const auto edge = f.edge_for(st, a);
      if (!edge) continue;  // unspecified: any circuit behaviour is fine
      const Edge& ed = f.edges()[*edge];
      const std::uint64_t obs = c.eval(a, code);
      const std::uint64_t next_code =
          c.enc.encoding.codes[static_cast<std::size_t>(ed.to)];
      EXPECT_EQ(c.next_state_of(obs), next_code);
      for (int b = 0; b < c.o(); ++b) {
        const char want = ed.output[static_cast<std::size_t>(b)];
        if (want == '-') continue;
        EXPECT_EQ((obs >> (c.s() + b)) & 1,
                  static_cast<std::uint64_t>(want == '1'));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Machines, SynthAgree,
    ::testing::Combine(::testing::Values("seq_detect", "traffic", "vending",
                                         "arbiter", "modulo5", "link_rx"),
                       ::testing::Values(EncodingKind::kBinary,
                                         EncodingKind::kGray,
                                         EncodingKind::kOneHot,
                                         EncodingKind::kSpread)));

// ---- STG analysis.

TEST(Analysis, SelfLoopStats) {
  const Fsm f = load("traffic");
  const StgStats st = analyze_stg(f);
  EXPECT_EQ(st.num_states, 3);
  EXPECT_EQ(st.num_edges, 7);
  EXPECT_EQ(st.num_self_loops, 4);
  EXPECT_EQ(st.states_with_self_loop, 3);
  EXPECT_EQ(st.reachable_states, 3);
  EXPECT_EQ(st.shortest_cycle, 1);
}

TEST(Analysis, ShortestCyclePerState) {
  // Pure ring of 3 states: every state's shortest cycle is 3.
  const char* ring = ".i 1\n.o 1\n- A B 0\n- B C 0\n- C A 0\n.e\n";
  const Fsm f = Fsm::from_kiss(kiss::parse(ring));
  const auto cyc = shortest_cycle_per_state(f);
  for (int c : cyc) EXPECT_EQ(c, 3);
  EXPECT_EQ(analyze_stg(f).shortest_cycle, 3);
}

TEST(Analysis, AcyclicTailReportsZero) {
  const char* tail = ".i 1\n.o 1\n- A B 0\n- B C 0\n- C C 0\n.e\n";
  const Fsm f = Fsm::from_kiss(kiss::parse(tail));
  const auto cyc = shortest_cycle_per_state(f);
  EXPECT_EQ(cyc[0], 0);
  EXPECT_EQ(cyc[1], 0);
  EXPECT_EQ(cyc[2], 1);
}

}  // namespace
}  // namespace ced::fsm
