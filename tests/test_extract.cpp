#include "core/extract.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "benchdata/handwritten.hpp"
#include "benchdata/suite.hpp"
#include "common/digest.hpp"
#include "core/greedy.hpp"
#include "core/parity.hpp"
#include "core/pipeline.hpp"
#include "kiss/kiss.hpp"
#include "sim/faults.hpp"

namespace ced::core {
namespace {

fsm::FsmCircuit circuit_for(const std::string& name) {
  const fsm::Fsm f =
      fsm::Fsm::from_kiss(kiss::parse(benchdata::handwritten_kiss(name)));
  return fsm::synthesize_fsm(f, fsm::EncodingKind::kBinary, {});
}

TEST(Extract, EveryCaseStartsWithNonzeroDiff) {
  const fsm::FsmCircuit c = circuit_for("link_rx");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  for (int p = 1; p <= 3; ++p) {
    ExtractOptions opts;
    opts.latency = p;
    const DetectabilityTable t = extract_cases(c, faults, opts);
    EXPECT_FALSE(t.cases.empty());
    for (const auto& ec : t.cases) {
      EXPECT_NE(ec.diff[0], 0u);
      EXPECT_GE(ec.length, 1);
      EXPECT_LE(ec.length, p);
      // Diff words only use observable bits.
      for (int k = 0; k < ec.length; ++k) {
        EXPECT_EQ(ec.diff[static_cast<std::size_t>(k)] >>
                      static_cast<unsigned>(t.num_bits),
                  0u);
      }
    }
  }
}

TEST(Extract, LatencyOneCasesAreSingleStep) {
  const fsm::FsmCircuit c = circuit_for("traffic");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions opts;
  opts.latency = 1;
  const DetectabilityTable t = extract_cases(c, faults, opts);
  for (const auto& ec : t.cases) EXPECT_EQ(ec.length, 1);
}

TEST(Extract, CasesAreDeduplicated) {
  const fsm::FsmCircuit c = circuit_for("vending");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions opts;
  opts.latency = 2;
  const DetectabilityTable t = extract_cases(c, faults, opts);
  for (std::size_t i = 0; i + 1 < t.cases.size(); ++i) {
    for (std::size_t j = i + 1; j < t.cases.size(); ++j) {
      EXPECT_FALSE(t.cases[i] == t.cases[j]) << i << " " << j;
    }
  }
  EXPECT_LE(t.cases.size(), t.num_paths);
}

TEST(Extract, MultiPassMatchesDirectExtraction) {
  // The single-pass multi-latency extraction must equal extracting each
  // bound independently.
  const fsm::FsmCircuit c = circuit_for("arbiter");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions o3;
  o3.latency = 3;
  const auto multi = extract_cases_multi(c, faults, o3);
  ASSERT_EQ(multi.size(), 3u);
  for (int p = 1; p <= 3; ++p) {
    ExtractOptions op;
    op.latency = p;
    const DetectabilityTable direct = extract_cases(c, faults, op);
    const DetectabilityTable& derived = multi[static_cast<std::size_t>(p - 1)];
    ASSERT_EQ(direct.cases.size(), derived.cases.size()) << "p=" << p;
    for (std::size_t i = 0; i < direct.cases.size(); ++i) {
      EXPECT_TRUE(direct.cases[i] == derived.cases[i]) << "p=" << p;
    }
  }
}

TEST(Extract, CanonicalFormIsSortedNonzeroUnique) {
  const fsm::FsmCircuit c = circuit_for("link_rx");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions opts;
  opts.latency = 3;
  const DetectabilityTable t = extract_cases(c, faults, opts);
  for (const auto& ec : t.cases) {
    ASSERT_GE(ec.length, 1);
    for (int k = 0; k < ec.length; ++k) {
      EXPECT_NE(ec.diff[static_cast<std::size_t>(k)], 0u);
      if (k > 0) {
        EXPECT_LT(ec.diff[static_cast<std::size_t>(k - 1)],
                  ec.diff[static_cast<std::size_t>(k)]);
      }
    }
  }
}

TEST(Extract, LowerLatencyCoverStaysValidAtHigherLatency) {
  // Every latency-(p+1) case contains its path's step-1 word, which is a
  // latency-p case's word too, so a cover of table[p] covers table[p+1].
  const fsm::FsmCircuit c = circuit_for("modulo5");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions o3;
  o3.latency = 3;
  const auto multi = extract_cases_multi(c, faults, o3);
  const auto cover1 = greedy_cover(multi[0]);
  EXPECT_TRUE(covers_all(cover1, multi[1]));
  EXPECT_TRUE(covers_all(cover1, multi[2]));
  const auto cover2 = greedy_cover(multi[1]);
  EXPECT_TRUE(covers_all(cover2, multi[2]));
}

TEST(Extract, LoopTruncationHappensOnLoopyMachine) {
  // A machine whose faulty walks revisit states quickly must show
  // loop-truncated (short) cases at p=3.
  const fsm::FsmCircuit c = circuit_for("traffic");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions opts;
  opts.latency = 3;
  const DetectabilityTable t = extract_cases(c, faults, opts);
  EXPECT_GT(t.num_loop_truncations, 0u);
  bool has_short = false;
  for (const auto& ec : t.cases) {
    if (ec.length < 3) has_short = true;
  }
  EXPECT_TRUE(has_short);
}

TEST(Extract, StatsAreConsistent) {
  const fsm::FsmCircuit c = circuit_for("seq_detect");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions opts;
  opts.latency = 2;
  const DetectabilityTable t = extract_cases(c, faults, opts);
  EXPECT_EQ(t.num_faults, faults.size());
  EXPECT_LE(t.num_detectable_faults, t.num_faults);
  EXPECT_GT(t.num_detectable_faults, 0u);
  EXPECT_GE(t.num_paths, t.cases.size());
  EXPECT_GE(t.num_activations, 1u);
  EXPECT_EQ(t.latency, 2);
  EXPECT_EQ(t.num_bits, c.n());
}

TEST(Extract, VAccessorMatchesDiffWords) {
  const fsm::FsmCircuit c = circuit_for("traffic");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions opts;
  opts.latency = 2;
  const DetectabilityTable t = extract_cases(c, faults, opts);
  for (std::size_t i = 0; i < t.cases.size(); ++i) {
    for (int k = 0; k < t.latency; ++k) {
      for (int j = 0; j < t.num_bits; ++j) {
        const bool expect =
            k < t.cases[i].length &&
            ((t.cases[i].diff[static_cast<std::size_t>(k)] >> j) & 1);
        EXPECT_EQ(t.v(i, j, k), expect);
      }
    }
  }
}

TEST(Extract, SemanticsCoincideAtLatencyOne) {
  // With p = 1 there is no state drift: both EC definitions must produce
  // identical tables.
  const fsm::FsmCircuit c = circuit_for("arbiter");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions impl;
  impl.latency = 1;
  ExtractOptions ml = impl;
  ml.semantics = DiffSemantics::kMachineLevel;
  const DetectabilityTable ti = extract_cases(c, faults, impl);
  const DetectabilityTable tm = extract_cases(c, faults, ml);
  ASSERT_EQ(ti.cases.size(), tm.cases.size());
  for (std::size_t i = 0; i < ti.cases.size(); ++i) {
    EXPECT_TRUE(ti.cases[i] == tm.cases[i]);
  }
}

TEST(Extract, MachineLevelDivergesBeyondLatencyOne) {
  // At p >= 2 the reference machine drifts from the faulty one, so the
  // machine-level table generally differs from the implementable one.
  const fsm::FsmCircuit c = circuit_for("link_rx");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions impl;
  impl.latency = 2;
  ExtractOptions ml = impl;
  ml.semantics = DiffSemantics::kMachineLevel;
  const DetectabilityTable ti = extract_cases(c, faults, impl);
  const DetectabilityTable tm = extract_cases(c, faults, ml);
  bool differ = ti.cases.size() != tm.cases.size();
  for (std::size_t i = 0; !differ && i < ti.cases.size(); ++i) {
    differ = !(ti.cases[i] == tm.cases[i]);
  }
  EXPECT_TRUE(differ);
  // Both stay well-formed.
  for (const auto& ec : tm.cases) {
    EXPECT_NE(ec.diff[0], 0u);
    EXPECT_LE(ec.length, 2);
  }
}

TEST(Extract, MachineLevelStepOneTableMatchesImplementable) {
  // Step-1 difference sets do not depend on the reference anchoring, so
  // the p=1 tables produced as a side effect of a deeper multi-extraction
  // must be identical under both semantics.
  const fsm::FsmCircuit c = circuit_for("modulo5");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions impl;
  impl.latency = 3;
  ExtractOptions ml = impl;
  ml.semantics = DiffSemantics::kMachineLevel;
  const auto ti = extract_cases_multi(c, faults, impl);
  const auto tm = extract_cases_multi(c, faults, ml);
  ASSERT_EQ(ti[0].cases.size(), tm[0].cases.size());
  for (std::size_t i = 0; i < ti[0].cases.size(); ++i) {
    EXPECT_TRUE(ti[0].cases[i] == tm[0].cases[i]);
  }
}

TEST(Extract, RejectsBadLatency) {
  const fsm::FsmCircuit c = circuit_for("traffic");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions opts;
  opts.latency = 0;
  EXPECT_THROW(extract_cases(c, faults, opts), std::invalid_argument);
  opts.latency = kMaxLatency + 1;
  EXPECT_THROW(extract_cases(c, faults, opts), std::invalid_argument);
}

TEST(Extract, CaseLimitTruncatesInsteadOfThrowing) {
  const fsm::FsmCircuit c = circuit_for("link_rx");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions opts;
  opts.latency = 3;
  ExtractOptions limited = opts;
  limited.max_cases = 5;
  const DetectabilityTable full = extract_cases(c, faults, opts);
  const DetectabilityTable cut = extract_cases(c, faults, limited);
  ASSERT_GT(full.cases.size(), limited.max_cases)
      << "fixture too small to exercise the limit";
  EXPECT_FALSE(full.truncated);
  EXPECT_TRUE(cut.truncated);
  EXPECT_FALSE(cut.truncation_reason.empty());
  // The truncated table holds a usable prefix: nonempty, no larger than the
  // full table, and every retained case also appears in the full extraction.
  EXPECT_FALSE(cut.cases.empty());
  EXPECT_LE(cut.cases.size(), full.cases.size());
  for (const auto& ec : cut.cases) {
    bool found = false;
    for (const auto& ref : full.cases) {
      if (ec == ref) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found);
  }
}

/// bench_ledger's case-list digest: the count, then each case's length and
/// words in table order.
std::string cases_digest(const DetectabilityTable& table) {
  Digest128 d;
  d.absorb(static_cast<std::uint64_t>(table.cases.size()));
  for (const ErroneousCase& ec : table.cases) {
    d.absorb(static_cast<std::uint64_t>(ec.length));
    for (int k = 0; k < ec.length; ++k) {
      d.absorb(ec.diff[static_cast<std::size_t>(k)]);
    }
  }
  return d.hex();
}

/// True if no case's word set is contained in another's (duplicates
/// included): the table is the subset-minimal antichain.
bool is_antichain(const std::vector<ErroneousCase>& cases) {
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& a = cases[i];
    for (std::size_t j = 0; j < cases.size(); ++j) {
      const auto& b = cases[j];
      if (i == j || a.length > b.length) continue;
      if (std::includes(b.diff.begin(), b.diff.begin() + b.length,
                        a.diff.begin(), a.diff.begin() + a.length)) {
        return false;
      }
    }
  }
  return true;
}

TEST(Extract, DegradedTablesArePinnedAtOneAndFourThreads) {
  // dk14's machine-level p=3 table holds 4266 cases. A 4000-case degrade
  // threshold strengthens it serially to two-word cases; at 4 threads each
  // worker's share is the 1024-case floor of 4000 / 4, and the table steps
  // down to single words.
  const PipelineOptions po;
  const fsm::FsmCircuit c = fsm::synthesize_fsm(
      benchdata::suite_fsm("dk14"), po.encoding, po.synth);
  const auto faults = sim::enumerate_stuck_at(c.netlist, po.faults);
  struct Pin {
    int threads;
    int words;
    std::size_t cases;
    const char* digest;
  };
  for (const Pin& pin : {Pin{1, 2, 2470, "8d22b19d65dda3c1ef83c416a5379de9"},
                         Pin{4, 1, 168, "b134a6817a5597bd28630874b92c8874"}}) {
    SCOPED_TRACE("threads=" + std::to_string(pin.threads));
    ExtractOptions opts;
    opts.latency = 3;
    opts.semantics = DiffSemantics::kMachineLevel;
    opts.degrade_threshold = 4000;
    opts.threads = pin.threads;
    const DetectabilityTable t = extract_cases_multi(c, faults, opts).back();
    EXPECT_TRUE(t.strengthened);
    EXPECT_FALSE(t.truncated);
    for (const auto& ec : t.cases) EXPECT_LE(ec.length, pin.words);
    EXPECT_TRUE(is_antichain(t.cases));
    EXPECT_EQ(t.cases.size(), pin.cases);
    EXPECT_EQ(cases_digest(t), pin.digest);
  }
}

TEST(Extract, UnrestrictedActivationsSupersetReachable) {
  const fsm::FsmCircuit c = circuit_for("seq_detect");
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  ExtractOptions reach;
  reach.latency = 1;
  ExtractOptions all = reach;
  all.restrict_to_reachable = false;
  const DetectabilityTable tr = extract_cases(c, faults, reach);
  const DetectabilityTable ta = extract_cases(c, faults, all);
  EXPECT_GE(ta.cases.size(), tr.cases.size());
}

}  // namespace
}  // namespace ced::core
