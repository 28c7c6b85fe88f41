// Differential oracle and determinism harness for the fault-injection
// campaign engine (sim/campaign.hpp).
//
// The central test re-derives campaign verdicts through a second,
// independent implementation path: the campaign drives the synthesized
// checker *netlist* through ProtectedMachine/FaultSession, while the oracle
// here replays the same seeded walks with nothing but direct functional-
// netlist evaluation and GF(2) parity arithmetic. With dc_unreachable=false
// the prediction logic is fully specified from the golden netlist at every
// state code, so the two must agree transition-for-transition:
//
//   checker fires on (input a, state c, observed response w)
//     <=>  exists parity beta with odd popcount(beta & (w ^ golden(a, c)))
//
// Any divergence — in the checker synthesis, the batched evaluation, the
// walk RNG contract, episode bookkeeping, or shard merging — breaks the
// verdict-by-verdict comparison.
//
// The rest pins the determinism contracts the storage layer depends on:
// byte-identical encoded reports across thread counts and checkpoint
// resumes, the canonical enumerate_stuck_at order, and canonical codec
// round-trips for the campaign artifact kinds.

#include "sim/campaign.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "benchdata/generator.hpp"
#include "benchdata/suite.hpp"
#include "core/extract.hpp"
#include "core/parity.hpp"
#include "core/parity_synth.hpp"
#include "core/run.hpp"
#include "core/rng.hpp"
#include "sim/fault_sim.hpp"
#include "sim/faults.hpp"
#include "storage/format.hpp"
#include "storage/store.hpp"

namespace ced::sim {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Shared fixtures: a solved design with a fully-specified checker.

struct Design {
  fsm::FsmCircuit circuit;
  std::vector<StuckAtFault> faults;
  std::vector<core::ParityFunc> parities;
  core::CedHardware hw;
};

/// Solves `machine` at bound `p` and synthesizes the checker with
/// dc_unreachable=false, making the predictor's behaviour defined (equal to
/// the golden parity) at every state code — the precondition for the exact
/// parity-math oracle below.
Design build_design(const fsm::Fsm& machine, int p) {
  const Result<RunConfig> cfg = RunConfig::Builder().latency(p).build();
  EXPECT_TRUE(cfg.has_value());
  const core::PipelineOptions& opts = cfg->options();
  const core::PipelineReport rep = ced::run_pipeline(machine, *cfg);
  core::Design derived = core::derive_design(machine, opts);
  Design d{std::move(derived.circuit), std::move(derived.faults), rep.parities,
           {}};
  core::CedSynthOptions copts = opts.ced;
  copts.dc_unreachable = false;
  d.hw = core::synthesize_ced(d.circuit, d.parities, copts);
  return d;
}

Design suite_design(const std::string& name, int p) {
  return build_design(benchdata::suite_fsm(name), p);
}

// ---------------------------------------------------------------------------
// The independent oracle.

/// Checker semantics re-derived from first principles (no checker netlist):
/// the compaction trees see the actual observable word `obs`, the predictor
/// (fully specified) computes the golden parity at the same (input, state),
/// and the comparator ORs the per-tree mismatches.
bool oracle_error(const Design& d, std::uint64_t input, std::uint64_t state,
                  std::uint64_t obs) {
  const std::uint64_t diff = obs ^ d.circuit.eval(input, state);
  for (const core::ParityFunc beta : d.parities) {
    if (std::popcount(beta & diff) & 1) return true;
  }
  return false;
}

void oracle_classify(FaultVerdict& v, int first, int bound, int horizon) {
  ++v.activations;
  if (first > horizon) {
    ++v.silent_escape;
  } else if (first <= bound) {
    ++v.detected_in_bound;
    ++v.histogram[static_cast<std::size_t>(first - 1)];
    v.max_latency = std::max(v.max_latency, first);
  } else {
    ++v.detected_late;
    ++v.histogram[static_cast<std::size_t>(first - 1)];
    v.max_latency = std::max(v.max_latency, first);
  }
}

/// Replays the documented walk contract — walk w from activation-state
/// index si of unit u draws inputs from Rng(seed).stream(u).stream(
/// si * walks + w) — against direct netlist evaluation, classifying
/// episodes with the documented taxonomy. Deliberately shares no code with
/// judge_stuck_walks.
FaultVerdict oracle_stuck_walks(const Design& d, const StuckAtFault& fault,
                                std::uint64_t unit_index,
                                const CampaignOptions& opts) {
  const int horizon = resolved_horizon(opts);
  FaultVerdict v;
  v.unit = (std::uint64_t{fault.net} << 1) | (fault.stuck_value ? 1 : 0);
  v.histogram.assign(static_cast<std::size_t>(horizon), 0);
  const logic::Injection inj = fault.injection();
  const auto reach =
      reachable_codes(d.circuit, d.circuit.enc.reset_code);
  const std::uint64_t input_mask =
      (std::uint64_t{1} << d.circuit.r()) - 1;
  const core::Rng unit_rng = core::Rng(opts.seed).stream(unit_index);

  for (std::size_t si = 0; si < reach.size(); ++si) {
    for (int w = 0; w < opts.walks; ++w) {
      core::Rng rng = unit_rng.stream(
          static_cast<std::uint64_t>(si) *
              static_cast<std::uint64_t>(opts.walks) +
          static_cast<std::uint64_t>(w));
      std::uint64_t state = reach[si];
      int pending = -1;
      for (int t = 0; t < opts.walk_length || pending >= 0; ++t) {
        const std::uint64_t a = rng.next() & input_mask;
        const bool active = pending < 0 || opts.persistence <= 0 ||
                            (t - pending) < opts.persistence;
        const std::uint64_t obs =
            d.circuit.eval(a, state, active ? &inj : nullptr);
        if (pending < 0 && active && obs != d.circuit.eval(a, state)) {
          pending = t;
        }
        if (oracle_error(d, a, state, obs)) {
          if (pending >= 0) {
            oracle_classify(v, t - pending + 1, opts.latency_bound, horizon);
            pending = -1;
          }
          state = d.circuit.enc.reset_code;
          continue;
        }
        if (pending >= 0 && t - pending + 1 >= horizon) {
          ++v.activations;
          ++v.silent_escape;
          pending = -1;
          state = d.circuit.enc.reset_code;
          continue;
        }
        state = d.circuit.next_state_of(obs);
      }
    }
  }
  return v;
}

/// Small randomized machines for the differential sweep. Shapes chosen to
/// exercise distinct structure: dense branching, heavy self-loops, an
/// interface wide enough for multi-word input masking.
std::vector<benchdata::SyntheticSpec> oracle_specs() {
  std::vector<benchdata::SyntheticSpec> specs;
  for (std::uint64_t seed : {3u, 17u, 58u}) {
    benchdata::SyntheticSpec s;
    s.name = "oracle" + std::to_string(seed);
    s.inputs = 2;
    s.states = 6;
    s.outputs = 2;
    s.branches = 3;
    s.seed = seed;
    specs.push_back(s);
  }
  benchdata::SyntheticSpec wide;
  wide.name = "oracle-wide";
  wide.inputs = 3;
  wide.states = 9;
  wide.outputs = 3;
  wide.branches = 5;
  wide.self_loop_bias = 0.45;
  wide.seed = 99;
  specs.push_back(wide);
  return specs;
}

// ---------------------------------------------------------------------------
// Satellite 1: table <-> simulation differential oracle.

TEST(CampaignOracle, WalkVerdictsMatchParityMathOnRandomMachines) {
  for (const auto& spec : oracle_specs()) {
    for (const int persistence : {0, 1}) {
      const Design d = build_design(benchdata::generate_fsm(spec), 2);
      CampaignOptions opts;
      opts.model = FaultModel::kStuckAt;
      opts.policy = CampaignPolicy::kRandomWalks;
      opts.latency_bound = 2;
      opts.persistence = persistence;
      opts.walks = 2;
      opts.walk_length = 40;
      opts.seed = 0xfeed0000 + spec.seed;
      const CampaignReport rep =
          run_campaign(d.circuit, d.hw, d.faults, opts);
      ASSERT_EQ(rep.verdicts.size(), d.faults.size());
      ASSERT_FALSE(rep.truncated);
      for (std::size_t i = 0; i < d.faults.size(); ++i) {
        const FaultVerdict expect =
            oracle_stuck_walks(d, d.faults[i], i, opts);
        EXPECT_EQ(rep.verdicts[i], expect)
            << spec.name << " persistence=" << persistence << " fault "
            << d.faults[i].to_string();
      }
    }
  }
}

TEST(CampaignOracle, TableCoverageImpliesExhaustiveBoundHolds) {
  for (const auto& spec : oracle_specs()) {
    const int p = 2;
    const Design d = build_design(benchdata::generate_fsm(spec), p);

    core::ExtractOptions eopts;
    eopts.latency = p;
    const core::DetectabilityTable table =
        core::extract_cases(d.circuit, d.faults, eopts);
    ASSERT_TRUE(core::covers_all(d.parities, table)) << spec.name;

    CampaignOptions opts;
    opts.latency_bound = p;
    opts.horizon = p;  // any slower episode becomes an escape
    const CampaignReport rep =
        run_campaign(d.circuit, d.hw, d.faults, opts);
    EXPECT_TRUE(rep.hard_guarantee());
    EXPECT_TRUE(rep.bound_holds()) << spec.name;
    EXPECT_EQ(rep.false_alarms, 0u) << spec.name;
    EXPECT_LE(rep.max_latency, p) << spec.name;

    // Latency-1 refinement: when the scheme already covers every one-step
    // case, no exhaustive episode may need the second cycle.
    core::ExtractOptions e1;
    e1.latency = 1;
    const auto t1 = core::extract_cases(d.circuit, d.faults, e1);
    if (core::uncovered_cases(d.parities, t1).empty()) {
      EXPECT_LE(rep.max_latency, 1) << spec.name;
    }
  }
}

TEST(CampaignMachine, BatchCheckerReuseMatchesWholeRowChecker) {
  // A faulty row keeps the golden checker verdict on every 64-input batch
  // whose response is golden and re-runs the checker on the rest. Both
  // halves must equal their oracles at every state code — reachable codes
  // take the cone rows and the reuse, the others the full pass — for
  // partial (dk16, 4 inputs) and two-batch (s386, 128 inputs) rows.
  for (const char* name : {"dk16", "s386"}) {
    SCOPED_TRACE(name);
    const Design d = suite_design(name, 2);
    const ProtectedMachine pm(d.circuit, d.hw);
    std::uint64_t reused_rows = 0;
    for (const StuckAtFault& f : d.faults) {
      const logic::Injection inj = f.injection();
      FaultSession session(pm, &inj);
      for (std::uint64_t code = 0; code <= d.circuit.state_mask(); ++code) {
        const TransitionRow& row = session.faulty_row(code);
        ASSERT_EQ(row.response, simulate_all_inputs(d.circuit, code, &inj))
            << f.to_string() << " code " << code;
        ASSERT_EQ(row.error, checker_error_mask(d.hw, code, row.response))
            << f.to_string() << " code " << code;
        const TransitionRow* golden = pm.golden_row(code);
        reused_rows += golden != nullptr && row.response == golden->response;
      }
      EXPECT_EQ(session.counters().cone_rows, pm.reachable().size());
    }
    EXPECT_GT(reused_rows, 0u);
  }
}

TEST(CampaignOracle, WeakenedSchemeIsFalsifiedByCampaign) {
  const int p = 2;
  const Design d = suite_design("dk16", p);
  ASSERT_GE(d.parities.size(), 2u);

  core::ExtractOptions eopts;
  eopts.latency = p;
  const core::DetectabilityTable table =
      core::extract_cases(d.circuit, d.faults, eopts);
  ASSERT_FALSE(table.strengthened);

  // Drop one parity tree whose removal the table says breaks coverage.
  std::vector<core::ParityFunc> weak;
  for (std::size_t drop = 0; drop < d.parities.size(); ++drop) {
    std::vector<core::ParityFunc> candidate;
    for (std::size_t l = 0; l < d.parities.size(); ++l) {
      if (l != drop) candidate.push_back(d.parities[l]);
    }
    if (!core::uncovered_cases(candidate, table).empty()) {
      weak = candidate;
      break;
    }
  }
  ASSERT_FALSE(weak.empty()) << "every single parity was redundant";

  core::CedSynthOptions copts;
  copts.dc_unreachable = false;
  const core::CedHardware weak_hw =
      core::synthesize_ced(d.circuit, weak, copts);

  CampaignOptions opts;
  opts.latency_bound = p;
  opts.horizon = p + 2;
  const CampaignReport rep =
      run_campaign(d.circuit, weak_hw, d.faults, opts);
  EXPECT_TRUE(rep.hard_guarantee());
  EXPECT_FALSE(rep.bound_holds());
  EXPECT_GT(rep.detected_late + rep.silent_escape, 0u);
}

TEST(CampaignOracle, StuckErrorCheckerIsFalsified) {
  // A checker whose error output is stuck at 1 "detects" every activation
  // on its first cycle. Only the fault-free sweep exposes it: the healthy
  // machine raises the alarm on every reachable transition.
  const int p = 2;
  const Design d = suite_design("dk16", p);
  ASSERT_FALSE(d.hw.two_rail);
  core::CedHardware stuck = d.hw;
  logic::Netlist checker;
  for (int i = 0; i < d.hw.r + d.hw.s + d.hw.n; ++i) {
    checker.add_input("x" + std::to_string(i));
  }
  const std::uint32_t zero = checker.add_const(false);
  for (int l = 0; l < 2 * d.hw.q; ++l) {
    checker.mark_output(zero, "parity" + std::to_string(l));
  }
  checker.mark_output(checker.add_const(true), "error");
  stuck.checker = std::move(checker);

  CampaignOptions opts;
  opts.latency_bound = p;
  const CampaignReport rep = run_campaign(d.circuit, stuck, d.faults, opts);
  EXPECT_TRUE(rep.hard_guarantee());
  EXPECT_GT(rep.activations, 0u);
  EXPECT_EQ(rep.detected_late + rep.silent_escape, 0u);
  EXPECT_EQ(rep.max_latency, 1);
  EXPECT_EQ(rep.false_alarms, 27u * 4u);  // reachable states x input values
  EXPECT_FALSE(rep.bound_holds());
}

// ---------------------------------------------------------------------------
// Verdict accounting invariants and diagnostic (flip) models.

void expect_consistent(const CampaignReport& rep) {
  EXPECT_EQ(rep.activations,
            rep.detected_in_bound + rep.detected_late + rep.silent_escape);
  std::uint64_t hist_sum = 0;
  for (const std::uint64_t h : rep.histogram) hist_sum += h;
  EXPECT_EQ(hist_sum, rep.detected_in_bound + rep.detected_late);
  EXPECT_EQ(rep.num_units, rep.verdicts.size());

  std::uint64_t acts = 0, in_bound = 0, late = 0, silent = 0, benign = 0;
  int max_latency = 0;
  for (const FaultVerdict& v : rep.verdicts) {
    acts += v.activations;
    in_bound += v.detected_in_bound;
    late += v.detected_late;
    silent += v.silent_escape;
    if (v.benign()) ++benign;
    max_latency = std::max(max_latency, v.max_latency);
  }
  EXPECT_EQ(acts, rep.activations);
  EXPECT_EQ(in_bound, rep.detected_in_bound);
  EXPECT_EQ(late, rep.detected_late);
  EXPECT_EQ(silent, rep.silent_escape);
  EXPECT_EQ(benign, rep.benign_units);
  EXPECT_EQ(max_latency, rep.max_latency);
}

TEST(CampaignFlips, TransientModelMeasuresWithoutAsserting) {
  const Design d = suite_design("dk16", 2);
  CampaignOptions opts;
  opts.model = FaultModel::kTransientFlip;
  opts.policy = CampaignPolicy::kRandomWalks;
  opts.latency_bound = 2;
  opts.walks = 3;
  opts.walk_length = 48;
  const CampaignReport rep = run_campaign(d.circuit, d.hw, {}, opts);
  EXPECT_FALSE(rep.hard_guarantee());
  EXPECT_EQ(rep.num_units, static_cast<std::uint64_t>(d.circuit.s()));
  expect_consistent(rep);

  // Deterministic: an identical rerun produces identical bytes.
  const CampaignReport again = run_campaign(d.circuit, d.hw, {}, opts);
  EXPECT_EQ(storage::encode_campaign_report(rep),
            storage::encode_campaign_report(again));
}

TEST(CampaignFlips, AdversarialUnitCountIsAllMasksUpToK) {
  const Design d = suite_design("dk16", 2);
  CampaignOptions opts;
  opts.model = FaultModel::kAdversarialFlip;
  opts.policy = CampaignPolicy::kRandomWalks;
  opts.latency_bound = 2;
  opts.flip_bits = 2;
  opts.walks = 1;
  opts.walk_length = 24;
  const int s = d.circuit.s();
  std::uint64_t expect_units = 0;
  for (std::uint64_t m = 1; m < (std::uint64_t{1} << s); ++m) {
    if (std::popcount(m) <= 2) ++expect_units;
  }
  const auto units = campaign_units(d.circuit, {}, opts);
  EXPECT_EQ(units.size(), expect_units);
  const CampaignReport rep = run_campaign(d.circuit, d.hw, {}, opts);
  EXPECT_EQ(rep.num_units, expect_units);
  expect_consistent(rep);
}

// ---------------------------------------------------------------------------
// Determinism: thread counts and checkpoint resumes are invisible in the
// encoded report.

TEST(CampaignDeterminism, ByteIdenticalAcrossThreadCounts) {
  const Design d = suite_design("dk16", 2);
  CampaignOptions opts;
  opts.policy = CampaignPolicy::kRandomWalks;
  opts.latency_bound = 2;
  opts.walks = 2;
  opts.walk_length = 32;
  opts.threads = 1;
  const CampaignReport serial =
      run_campaign(d.circuit, d.hw, d.faults, opts);
  opts.threads = 4;
  const CampaignReport parallel =
      run_campaign(d.circuit, d.hw, d.faults, opts);
  EXPECT_EQ(storage::encode_campaign_report(serial),
            storage::encode_campaign_report(parallel));
}

class CampaignStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char buf[] = "/tmp/ced_campaign_test_XXXXXX";
    ASSERT_NE(::mkdtemp(buf), nullptr);
    dir_ = buf;
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  fs::path dir_;
};

TEST_F(CampaignStoreTest, CheckpointResumeIsByteIdentical) {
  const Design d = suite_design("dk16", 2);
  CampaignOptions opts;
  opts.latency_bound = 2;
  ShardPlan sharding;
  sharding.num_shards = 5;

  // Reference: one uncheckpointed run.
  const std::string reference = storage::encode_campaign_report(
      run_campaign(d.circuit, d.hw, d.faults, opts, sharding));

  const std::string key =
      campaign_digest(d.circuit, d.hw, d.faults, opts, sharding.num_shards);
  storage::ArtifactStore store(dir_);
  const ShardHooks<CampaignShard> hooks =
      storage::make_campaign_hooks(store, key);

  // Interrupted run: the deterministic valve stops after two shards.
  ShardPlan partial = sharding;
  partial.max_new_shards = 2;
  const CampaignReport truncated =
      run_campaign(d.circuit, d.hw, d.faults, opts, partial, hooks);
  EXPECT_TRUE(truncated.truncated);
  EXPECT_FALSE(truncated.truncation_reason.empty());
  EXPECT_LT(truncated.verdicts.size(), d.faults.size());
  int shards_on_disk = 0;
  for (std::uint32_t i = 0; i < 5; ++i) {
    if (fs::exists(dir_ / (storage::campaign_shard_name(key, i) + ".ced"))) {
      ++shards_on_disk;
    }
  }
  EXPECT_EQ(shards_on_disk, 2);

  // Resume: loads the two checkpoints, computes the rest, and the merged
  // report is byte-identical to the never-interrupted run.
  const CampaignReport resumed =
      run_campaign(d.circuit, d.hw, d.faults, opts, sharding, hooks);
  EXPECT_FALSE(resumed.truncated);
  EXPECT_EQ(storage::encode_campaign_report(resumed), reference);

  // A fully-cached rerun is also identical.
  const CampaignReport cached =
      run_campaign(d.circuit, d.hw, d.faults, opts, sharding, hooks);
  EXPECT_EQ(storage::encode_campaign_report(cached), reference);
}

TEST_F(CampaignStoreTest, CorruptShardIsQuarantinedAndRecomputed) {
  const Design d = suite_design("dk16", 2);
  CampaignOptions opts;
  opts.latency_bound = 2;
  ShardPlan sharding;
  sharding.num_shards = 3;
  const std::string key =
      campaign_digest(d.circuit, d.hw, d.faults, opts, sharding.num_shards);
  storage::ArtifactStore store(dir_);
  const ShardHooks<CampaignShard> hooks =
      storage::make_campaign_hooks(store, key);

  const std::string reference = storage::encode_campaign_report(
      run_campaign(d.circuit, d.hw, d.faults, opts, sharding, hooks));

  // Flip bytes in the middle of shard 1's file: the load hook must treat
  // it as a miss (quarantining it), never decode it into wrong verdicts.
  const fs::path shard_path =
      dir_ / (storage::campaign_shard_name(key, 1) + ".ced");
  ASSERT_TRUE(fs::exists(shard_path));
  {
    std::fstream f(shard_path,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(shard_path) / 2));
    f.put('\xa5');
  }
  const CampaignReport recovered =
      run_campaign(d.circuit, d.hw, d.faults, opts, sharding, hooks);
  EXPECT_EQ(storage::encode_campaign_report(recovered), reference);
  EXPECT_FALSE(fs::exists(shard_path) &&
               fs::file_size(shard_path) < 8);  // rewritten, not truncated
}

TEST_F(CampaignStoreTest, ReportRoundTripsThroughStore) {
  const Design d = suite_design("dk16", 2);
  CampaignOptions opts;
  opts.latency_bound = 2;
  const CampaignReport rep = run_campaign(d.circuit, d.hw, d.faults, opts);
  storage::ArtifactStore store(dir_);
  const std::string name = storage::campaign_report_name("deadbeef");
  ASSERT_TRUE(storage::store_campaign_report(store, name, rep).ok());
  const auto loaded = storage::load_campaign_report(store, name);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(storage::encode_campaign_report(*loaded),
            storage::encode_campaign_report(rep));
}

// ---------------------------------------------------------------------------
// The campaign key: result-shaping options move it, valves do not.

TEST(CampaignDigest, TracksResultShapingOptionsOnly) {
  const Design d = suite_design("dk16", 2);
  CampaignOptions opts;
  opts.latency_bound = 2;
  const std::string base =
      campaign_digest(d.circuit, d.hw, d.faults, opts, 4);
  EXPECT_EQ(base.size(), 32u);

  CampaignOptions valves = opts;
  valves.threads = 7;
  valves.deadline = core::Deadline::after(1e6);
  EXPECT_EQ(campaign_digest(d.circuit, d.hw, d.faults, valves, 4), base);

  CampaignOptions seed = opts;
  seed.seed ^= 1;
  EXPECT_NE(campaign_digest(d.circuit, d.hw, d.faults, seed, 4), base);
  CampaignOptions pol = opts;
  pol.policy = CampaignPolicy::kRandomWalks;
  EXPECT_NE(campaign_digest(d.circuit, d.hw, d.faults, pol, 4), base);
  EXPECT_NE(campaign_digest(d.circuit, d.hw, d.faults, opts, 5), base);
}

// ---------------------------------------------------------------------------
// Satellite 3: the canonical enumerate_stuck_at order is a pinned contract.

TEST(FaultEnumeration, CanonicalOrderIsPinned) {
  logic::Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto c = nl.add_input("c");
  const auto ab = nl.add_gate(logic::GateType::kAnd, {a, b});
  const auto buf = nl.add_gate(logic::GateType::kBuf, {ab});
  const auto out = nl.add_gate(logic::GateType::kOr, {buf, c});
  nl.mark_output(out, "y");

  // Uncollapsed: every net, SA0 before SA1, ascending net id.
  const auto full = enumerate_stuck_at(nl, {/*collapse=*/false});
  std::vector<StuckAtFault> expect_full;
  for (std::uint32_t net = 0; net <= out; ++net) {
    expect_full.push_back({net, false});
    expect_full.push_back({net, true});
  }
  EXPECT_EQ(full, expect_full);

  // Collapsed: the exact representative set this netlist produces today.
  // This is a regression pin — collapse *decisions* may evolve, but any
  // change here invalidates content-addressed extraction/campaign keys and
  // must be a deliberate, versioned event.
  const auto collapsed = enumerate_stuck_at(nl, {/*collapse=*/true});
  const std::vector<StuckAtFault> expect_collapsed = {
      {a, true}, {b, true}, {c, false}, {buf, false},
      {out, false}, {out, true},
  };
  EXPECT_EQ(collapsed, expect_collapsed);
}

TEST(FaultEnumeration, OrderIsCanonicalOnRealCircuits) {
  for (const char* name : {"dk16", "s386"}) {
    const fsm::FsmCircuit circuit =
        fsm::synthesize_fsm(benchdata::suite_fsm(name),
                            fsm::EncodingKind::kBinary, {});
    const auto faults = enumerate_stuck_at(circuit.netlist);
    ASSERT_FALSE(faults.empty());
    for (std::size_t i = 1; i < faults.size(); ++i) {
      const auto& prev = faults[i - 1];
      const auto& cur = faults[i];
      EXPECT_TRUE(prev.net < cur.net ||
                  (prev.net == cur.net &&
                   prev.stuck_value < cur.stuck_value))
          << name << " position " << i;
    }
    EXPECT_EQ(faults, enumerate_stuck_at(circuit.netlist));
  }
}

// ---------------------------------------------------------------------------
// Canonical codecs: encode(decode(bytes)) == bytes.

TEST(CampaignCodec, ShardAndReportRoundTripByteIdentical) {
  CampaignShard shard;
  shard.index = 2;
  shard.num_shards = 7;
  for (std::uint64_t u = 0; u < 3; ++u) {
    FaultVerdict v;
    v.unit = u * 11 + 1;
    v.activations = 5 + u;
    v.detected_in_bound = 3;
    v.detected_late = 1;
    v.silent_escape = 1 + u;
    v.max_latency = 3;
    v.histogram = {2, 1, 1};
    shard.verdicts.push_back(v);
  }
  const std::string bytes = storage::encode_campaign_shard(shard);
  const auto decoded = storage::decode_campaign_shard(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->index, shard.index);
  EXPECT_EQ(decoded->num_shards, shard.num_shards);
  EXPECT_EQ(decoded->verdicts, shard.verdicts);
  EXPECT_EQ(storage::encode_campaign_shard(*decoded), bytes);

  CampaignReport rep;
  rep.model = FaultModel::kAdversarialFlip;
  rep.policy = CampaignPolicy::kRandomWalks;
  rep.latency_bound = 2;
  rep.horizon = 4;
  rep.flip_bits = 2;
  rep.walks = 8;
  rep.walk_length = 96;
  rep.seed = 0x123456789abcdef0ull;
  rep.num_units = 3;
  rep.activations = 18;
  rep.detected_in_bound = 11;
  rep.detected_late = 2;
  rep.silent_escape = 5;
  rep.benign_units = 0;
  rep.false_alarms = 6;
  rep.max_latency = 3;
  rep.histogram = {9, 2, 2, 0};
  rep.truncated = true;
  rep.truncation_reason = "deadline";
  rep.verdicts = shard.verdicts;
  const std::string rbytes = storage::encode_campaign_report(rep);
  const auto rdecoded = storage::decode_campaign_report(rbytes);
  ASSERT_TRUE(rdecoded.has_value());
  EXPECT_EQ(storage::encode_campaign_report(*rdecoded), rbytes);
  EXPECT_EQ(rdecoded->verdicts, rep.verdicts);
  EXPECT_EQ(rdecoded->truncation_reason, rep.truncation_reason);
  EXPECT_EQ(rdecoded->false_alarms, rep.false_alarms);
  EXPECT_TRUE(rdecoded->hard_guarantee() == rep.hard_guarantee());
}

// ---------------------------------------------------------------------------
// Option validation.

TEST(CampaignOptionsValidation, MalformedOptionsThrow) {
  const Design d = suite_design("dk16", 2);
  {
    CampaignOptions opts;  // exhaustive policy...
    opts.model = FaultModel::kTransientFlip;  // ...cannot judge flips
    EXPECT_THROW(run_campaign(d.circuit, d.hw, {}, opts),
                 std::invalid_argument);
  }
  {
    CampaignOptions opts;
    opts.latency_bound = 2;
    opts.horizon = 1;  // below the bound
    EXPECT_THROW(run_campaign(d.circuit, d.hw, d.faults, opts),
                 std::invalid_argument);
  }
  {
    CampaignOptions opts;
    opts.latency_bound = 0;  // outside 1..kMaxLatency
    EXPECT_THROW(run_campaign(d.circuit, d.hw, d.faults, opts),
                 std::invalid_argument);
  }
  {
    CampaignOptions opts;
    opts.policy = CampaignPolicy::kRandomWalks;
    opts.walks = 0;
    EXPECT_THROW(run_campaign(d.circuit, d.hw, d.faults, opts),
                 std::invalid_argument);
  }
  {
    ShardPlan plan;
    plan.max_new_shards = -1;  // a quota is a count; 0 means no limit
    EXPECT_THROW(run_campaign(d.circuit, d.hw, d.faults, {}, plan),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace ced::sim
