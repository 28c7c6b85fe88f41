#include "fsm/minimize_states.hpp"

#include <gtest/gtest.h>

#include "benchdata/handwritten.hpp"
#include "fsm/synthesize.hpp"
#include "kiss/kiss.hpp"

namespace ced::fsm {
namespace {

Fsm load_text(const char* text) { return Fsm::from_kiss(kiss::parse(text)); }

/// Behavioural equivalence on specified transitions: walks both machines
/// over every input sequence of the given depth from reset and compares
/// specified outputs.
void expect_equivalent(const Fsm& a, const Fsm& b, int depth) {
  ASSERT_EQ(a.num_inputs(), b.num_inputs());
  ASSERT_EQ(a.num_outputs(), b.num_outputs());
  struct Frame {
    int sa, sb, d;
  };
  std::vector<Frame> stack{{a.reset_state(), b.reset_state(), 0}};
  const std::uint64_t inputs = std::uint64_t{1} << a.num_inputs();
  while (!stack.empty()) {
    const Frame fr = stack.back();
    stack.pop_back();
    if (fr.d == depth) continue;
    for (std::uint64_t in = 0; in < inputs; ++in) {
      const auto ta = a.behavior_for(fr.sa, in);
      const auto tb = b.behavior_for(fr.sb, in);
      if (!ta) continue;  // unspecified in the original: anything goes
      ASSERT_TRUE(tb.has_value())
          << "reduced machine dropped a specified transition";
      for (std::size_t o = 0; o < ta->output.size(); ++o) {
        if (ta->output[o] == '-') continue;
        EXPECT_EQ(ta->output[o], tb->output[o]);
      }
      stack.push_back(Frame{ta->next, tb->next, fr.d + 1});
    }
  }
}

TEST(MinimizeStates, MergesIdenticalStates) {
  // B and C are behaviourally identical.
  const char* dup = R"(.i 1
.o 1
0 A B 0
1 A C 0
0 B A 1
1 B B 0
0 C A 1
1 C C 0
.e
)";
  const Fsm f = load_text(dup);
  const StateMinimizeResult r = minimize_states(f);
  EXPECT_EQ(r.states_before, 3);
  EXPECT_EQ(r.states_after, 2);
  EXPECT_EQ(r.state_map[1], r.state_map[2]);
  expect_equivalent(f, r.machine, 6);
}

TEST(MinimizeStates, KeepsDistinguishableStates) {
  const Fsm f = load_text(benchdata::handwritten_kiss("seq_detect").c_str());
  const StateMinimizeResult r = minimize_states(f);
  EXPECT_EQ(r.states_after, r.states_before);  // detector is minimal
}

TEST(MinimizeStates, DeepDistinction) {
  // States differ only after two steps.
  const char* deep = R"(.i 1
.o 1
- A X 0
- B Y 0
- X GOOD 0
- Y BAD 0
- GOOD GOOD 1
- BAD BAD 0
.e
)";
  const Fsm f = load_text(deep);
  const StateMinimizeResult r = minimize_states(f);
  // A != B because X -> GOOD but Y -> BAD.
  EXPECT_NE(r.state_map[0], r.state_map[1]);
}

TEST(MinimizeStates, HandwrittenMachinesStayEquivalent) {
  for (const auto& e : benchdata::handwritten_fsms()) {
    const Fsm f = load_text(e.kiss.c_str());
    const StateMinimizeResult r = minimize_states(f);
    EXPECT_LE(r.states_after, r.states_before) << e.name;
    expect_equivalent(f, r.machine, 5);
  }
}

TEST(MergeCompatible, UsesDontCaresToMerge) {
  // B and C agree wherever both are specified; exact minimization cannot
  // merge them (different don't-care positions) but compatible merging can.
  const char* compat = R"(.i 1
.o 2
0 A B 00
1 A C 00
0 B A 1-
1 B B 00
0 C A 10
1 C C 0-
.e
)";
  const Fsm f = load_text(compat);
  const StateMinimizeResult exact = minimize_states(f);
  EXPECT_EQ(exact.states_after, 3);
  const StateMinimizeResult merged = merge_compatible_states(f);
  const int b_idx = f.state_index("B");
  const int c_idx = f.state_index("C");
  EXPECT_EQ(merged.state_map[static_cast<std::size_t>(b_idx)],
            merged.state_map[static_cast<std::size_t>(c_idx)]);
  EXPECT_EQ(merged.states_after, 2);
  expect_equivalent(f, merged.machine, 6);
}

TEST(MergeCompatible, RespectsIncompatibility) {
  const char* conflict = R"(.i 1
.o 1
0 A B 0
1 A C 0
0 B A 1
1 B B 0
0 C A 0
1 C C 0
.e
)";
  const Fsm f = load_text(conflict);
  const StateMinimizeResult r = merge_compatible_states(f);
  // B and C conflict on input 0 (outputs 1 vs 0).
  EXPECT_NE(r.state_map[1], r.state_map[2]);
  expect_equivalent(f, r.machine, 6);
}

TEST(MergeCompatible, ClosureBlocksUnsafeMerges) {
  // P and Q look compatible but force (GOOD, BAD) together, which conflict.
  const char* closure = R"(.i 1
.o 1
- P GOOD -
- Q BAD -
- GOOD GOOD 1
- BAD BAD 0
.e
)";
  const Fsm f = load_text(closure);
  const StateMinimizeResult r = merge_compatible_states(f);
  const int p_idx = f.state_index("P");
  const int q_idx = f.state_index("Q");
  EXPECT_NE(r.state_map[static_cast<std::size_t>(p_idx)],
            r.state_map[static_cast<std::size_t>(q_idx)]);
  expect_equivalent(f, r.machine, 6);
}

TEST(MergeCompatible, HandwrittenMachinesStayEquivalent) {
  for (const auto& e : benchdata::handwritten_fsms()) {
    const Fsm f = load_text(e.kiss.c_str());
    const StateMinimizeResult r = merge_compatible_states(f);
    EXPECT_LE(r.states_after, r.states_before) << e.name;
    expect_equivalent(f, r.machine, 5);
  }
}

TEST(MergeCompatible, ReducedMachineSynthesizes) {
  const Fsm f = load_text(benchdata::handwritten_kiss("link_rx").c_str());
  const StateMinimizeResult r = merge_compatible_states(f);
  const FsmCircuit c = synthesize_fsm(r.machine, EncodingKind::kBinary);
  EXPECT_GT(c.netlist.gate_count(), 0u);
}

}  // namespace
}  // namespace ced::fsm
