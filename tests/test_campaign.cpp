// Differential oracles and determinism harness for the fault-injection
// campaign engine (sim/campaign.hpp), one oracle per engine.
//
// The campaign drives the synthesized checker *netlist* through
// ProtectedMachine/FaultSession: batched rows, a memoized worst-case
// search for stuck-at faults, seeded walks for state upsets. The oracles
// here re-derive its verdicts one transition at a time, sharing none of
// that code:
//
//   * stuck-at (exhaustive): every input path up to the horizon, simulated
//     with direct functional-netlist evaluation, with the checker replaced
//     by GF(2) parity arithmetic. With dc_unreachable=false the prediction
//     logic is fully specified from the golden netlist at every state
//     code, so the two must agree:
//
//       checker fires on (input a, state c, observed response w)
//         <=>  exists parity beta with odd popcount(beta & (w ^ golden(a, c)))
//
//   * upsets (walks): the documented walk RNG contract replayed through the
//     FSM and checker netlists (eval_single), on a checker synthesized
//     with dc_unreachable=true, whose don't-care fill lets some upsets be
//     detected.
//
// Any divergence — in the checker synthesis, the batched evaluation, the
// search's memo, the walk RNG contract, episode bookkeeping, or shard
// merging — breaks the verdict-by-verdict comparison.
//
// The rest pins the determinism contracts the storage layer depends on:
// byte-identical encoded reports across thread counts and checkpoint
// resumes, the canonical unit orders, and canonical codec round-trips for
// the campaign artifact kinds.

#include "sim/campaign.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "benchdata/generator.hpp"
#include "benchdata/suite.hpp"
#include "core/extract.hpp"
#include "core/parity.hpp"
#include "core/parity_synth.hpp"
#include "core/run.hpp"
#include "core/rng.hpp"
#include "oracle/covers.hpp"
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
// The independent oracles, one per engine.

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

/// No path detects within the horizon.
constexpr int kNever = 1 << 20;

/// The exhaustive judge's verdict for one stuck-at fault, by brute force:
/// every activation (reachable state c, input a whose faulty response
/// differs from the golden one) is followed down every input path of the
/// horizon's length, and its episode is classified by its slowest first
/// detection. The fault stays active for `persistence` cycles from the
/// activation (0 = always). Deliberately shares no code with
/// judge_stuck_exhaustive or its memoized search.
FaultVerdict oracle_stuck_exhaustive(const Design& d,
                                     const StuckAtFault& fault,
                                     const CampaignOptions& opts) {
  const int horizon = resolved_horizon(opts);
  FaultVerdict v;
  v.unit = (std::uint64_t{fault.net} << 1) | (fault.stuck_value ? 1 : 0);
  v.histogram.assign(static_cast<std::size_t>(horizon), 0);
  const logic::Injection inj = fault.injection();
  const std::uint64_t num_inputs = std::uint64_t{1} << d.circuit.r();
  std::uint64_t num_paths = 1;  // input sequences after the activating one
  for (int t = 1; t < horizon; ++t) num_paths *= num_inputs;

  for (const std::uint64_t c :
       reachable_codes(d.circuit, d.circuit.enc.reset_code)) {
    for (std::uint64_t a = 0; a < num_inputs; ++a) {
      if (d.circuit.eval(a, c, &inj) == d.circuit.eval(a, c)) continue;
      int worst = 0;
      for (std::uint64_t path = 0; path < num_paths && worst < kNever;
           ++path) {
        int first = kNever;
        std::uint64_t state = c;
        std::uint64_t input = a;
        std::uint64_t rest = path;  // the later inputs, base num_inputs
        for (int t = 1; t <= horizon; ++t) {
          const bool active = opts.persistence <= 0 || t <= opts.persistence;
          const std::uint64_t obs =
              d.circuit.eval(input, state, active ? &inj : nullptr);
          if (oracle_error(d, input, state, obs)) {
            first = t;
            break;
          }
          state = d.circuit.next_state_of(obs);
          input = rest % num_inputs;
          rest /= num_inputs;
        }
        worst = std::max(worst, first);
      }
      oracle_classify(v, worst, opts.latency_bound, horizon);
    }
  }
  return v;
}

/// The walk judge's verdict for the upset `mask` at unit index
/// `unit_index`, replaying the documented walk contract — walk w from
/// reachable-state index si of unit u draws inputs from
/// Rng(seed).stream(u).stream(si * walks + w) — one transition at a time
/// through the FSM netlist and the checker netlist. A walk ends at the
/// first alarm, when the upset and golden states reconverge, or at the
/// horizon; an undetected walk escapes when an output diverged or the
/// states never reconverged. Deliberately shares no code with
/// judge_flip_walks or ProtectedMachine.
FaultVerdict oracle_upset_walks(const fsm::FsmCircuit& circuit,
                                const core::CedHardware& hw,
                                std::uint64_t mask, std::uint64_t unit_index,
                                const CampaignOptions& opts) {
  const int horizon = resolved_horizon(opts);
  FaultVerdict v;
  v.unit = mask;
  v.histogram.assign(static_cast<std::size_t>(horizon), 0);
  const auto reach = reachable_codes(circuit, circuit.enc.reset_code);
  const std::uint64_t input_mask = (std::uint64_t{1} << circuit.r()) - 1;
  const core::Rng unit_rng = core::Rng(opts.seed).stream(unit_index);

  for (std::size_t si = 0; si < reach.size(); ++si) {
    for (int w = 0; w < opts.walks; ++w) {
      core::Rng rng = unit_rng.stream(
          static_cast<std::uint64_t>(si) *
              static_cast<std::uint64_t>(opts.walks) +
          static_cast<std::uint64_t>(w));
      std::uint64_t golden = reach[si];
      std::uint64_t upset = golden ^ mask;
      bool output_diverged = false;
      int detected = 0;
      for (int t = 1; t <= horizon; ++t) {
        const std::uint64_t a = rng.next() & input_mask;
        const std::uint64_t upset_obs = circuit.eval(a, upset);
        if (hw.error_asserted(a, upset, upset_obs)) {
          detected = t;
          break;
        }
        const std::uint64_t golden_obs = circuit.eval(a, golden);
        output_diverged = output_diverged ||
                          ((upset_obs ^ golden_obs) >> circuit.s()) != 0;
        upset = circuit.next_state_of(upset_obs);
        golden = circuit.next_state_of(golden_obs);
        if (upset == golden) break;
      }
      if (detected > 0) {
        oracle_classify(v, detected, opts.latency_bound, horizon);
      } else if (output_diverged || upset != golden) {
        ++v.activations;
        ++v.silent_escape;
      }
    }
  }
  return v;
}

/// Every mask of 1..k of the s state bits, ascending, by scanning all 2^s.
std::vector<std::uint64_t> masks_up_to(int s, int k) {
  std::vector<std::uint64_t> masks;
  for (std::uint64_t m = 1; m < (std::uint64_t{1} << s); ++m) {
    if (std::popcount(m) <= k) masks.push_back(m);
  }
  return masks;
}

/// Options for an upset campaign of at most `k` bits per upset.
CampaignOptions upset_options(int k) {
  CampaignOptions opts;
  opts.model = FaultModel::kTransientFlip;
  opts.policy = policy_of(opts.model);
  opts.latency_bound = 2;
  opts.flip_bits = k;
  return opts;
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
// Engine <-> oracle and table <-> simulation differential checks.

TEST(CampaignOracle, ExhaustiveVerdictsMatchBruteForceOnRandomMachines) {
  // The solved p=2 schemes detect every activation on its first cycle, so
  // each machine also runs its scheme cut to the first two trees, at bound
  // 1: there some detections come a cycle late and some activations
  // escape, and persistence 1 differs from 0.
  std::uint64_t late = 0;
  std::uint64_t silent = 0;
  for (const auto& spec : oracle_specs()) {
    const Design solved = build_design(benchdata::generate_fsm(spec), 2);
    Design cut = solved;
    cut.parities.resize(2);
    core::CedSynthOptions specified;
    specified.dc_unreachable = false;
    cut.hw = core::synthesize_ced(cut.circuit, cut.parities, specified);
    const std::pair<const Design*, int> schemes[] = {{&solved, 2}, {&cut, 1}};
    for (const auto& [d, bound] : schemes) {
      for (const int persistence : {0, 1}) {
        CampaignOptions opts;
        opts.latency_bound = bound;
        opts.horizon = 3;
        opts.persistence = persistence;
        const CampaignReport rep =
            run_campaign(d->circuit, d->hw, d->faults, opts);
        ASSERT_EQ(rep.verdicts.size(), d->faults.size());
        ASSERT_FALSE(rep.truncated);
        for (std::size_t i = 0; i < d->faults.size(); ++i) {
          EXPECT_EQ(rep.verdicts[i],
                    oracle_stuck_exhaustive(*d, d->faults[i], opts))
              << spec.name << " q=" << d->parities.size()
              << " persistence=" << persistence << " fault "
              << d->faults[i].to_string();
        }
        late += rep.detected_late;
        silent += rep.silent_escape;
      }
    }
  }
  EXPECT_GT(late, 0u);
  EXPECT_GT(silent, 0u);
}

TEST(CampaignOracle, UpsetWalkVerdictsMatchNetlistReplayOnRandomMachines) {
  std::uint64_t detected = 0;
  for (const auto& spec : oracle_specs()) {
    const Design d = build_design(benchdata::generate_fsm(spec), 2);
    const core::CedHardware hw =
        core::synthesize_ced(d.circuit, d.parities, core::CedSynthOptions{});
    for (const int k : {1, 2}) {
      CampaignOptions opts = upset_options(k);
      opts.walks = 2;
      opts.seed = 0xfeed0000 + spec.seed;
      const CampaignReport rep = run_campaign(d.circuit, hw, {}, opts);
      const std::vector<std::uint64_t> masks = masks_up_to(d.circuit.s(), k);
      ASSERT_EQ(rep.verdicts.size(), masks.size());
      ASSERT_FALSE(rep.truncated);
      for (std::size_t i = 0; i < masks.size(); ++i) {
        EXPECT_EQ(rep.verdicts[i],
                  oracle_upset_walks(d.circuit, hw, masks[i], i, opts))
            << spec.name << " k=" << k << " mask " << masks[i];
      }
      detected += rep.detected_in_bound + rep.detected_late;
    }
  }
  EXPECT_GT(detected, 0u);
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

/// `hw` with its checker replaced by one whose parity outputs are tied to
/// 0 and whose error output is tied to 1: it reads none of its inputs.
core::CedHardware stuck_error_checker(const core::CedHardware& hw) {
  core::CedHardware stuck = hw;
  logic::Netlist checker;
  for (int i = 0; i < hw.r + hw.s + hw.n; ++i) {
    checker.add_input("x" + std::to_string(i));
  }
  const std::uint32_t zero = checker.add_const(false);
  for (int l = 0; l < 2 * hw.q; ++l) {
    checker.mark_output(zero, "parity" + std::to_string(l));
  }
  checker.mark_output(checker.add_const(true), "error");
  stuck.checker = std::move(checker);
  return stuck;
}

TEST(CampaignMachine, BatchCheckerReuseMatchesWholeRowChecker) {
  // A faulty row keeps the golden checker verdict on every 64-input batch
  // whose response is golden and evaluates only the checker's response
  // cone on the rest, reading the other checker nets from the golden
  // pass. Both halves must equal their oracles at every state code —
  // reachable codes take the cone rows, the reuse and the response cone,
  // the others the full passes — for partial (dk16, 4 inputs) and
  // two-batch (s386, 128 inputs) rows, for a two-rail comparator, and for
  // a checker whose error output lies outside the cone (its cone has no
  // gates). At a reachable code where the fault changes no response, the
  // session hands out the machine's golden row object itself.
  const Design dk16 = suite_design("dk16", 2);
  const Design s386 = suite_design("s386", 2);
  Design two_rail = dk16;
  core::CedSynthOptions copts;
  copts.dc_unreachable = false;
  copts.two_rail = true;
  two_rail.hw = core::synthesize_ced(dk16.circuit, dk16.parities, copts);
  ASSERT_TRUE(two_rail.hw.two_rail);
  Design stuck = dk16;
  stuck.hw = stuck_error_checker(dk16.hw);
  const std::pair<const char*, const Design*> checkers[] = {
      {"dk16", &dk16},
      {"s386", &s386},
      {"dk16 two-rail", &two_rail},
      {"dk16 stuck error", &stuck}};
  for (const auto& [label, design] : checkers) {
    SCOPED_TRACE(label);
    const Design& d = *design;
    const ProtectedMachine pm(d.circuit, d.hw);
    const std::uint64_t batches = (pm.num_inputs() + 63) / 64;
    std::uint64_t reused_rows = 0;
    std::uint64_t cone_batches = 0;
    for (const StuckAtFault& f : d.faults) {
      const logic::Injection inj = f.injection();
      FaultSession session(pm, &inj);
      std::uint64_t dormant = 0;
      std::uint64_t changed = 0;  // batches whose response is not golden
      std::uint64_t full = 0;     // batches at codes off the reachable set
      for (std::uint64_t code = 0; code <= d.circuit.state_mask(); ++code) {
        const TransitionRow& row = session.faulty_row(code);
        ASSERT_EQ(row.response, simulate_all_inputs(d.circuit, code, &inj))
            << f.to_string() << " code " << code;
        ASSERT_EQ(row.error, checker_error_mask(d.hw, code, row.response))
            << f.to_string() << " code " << code;
        const TransitionRow* golden = pm.golden_row(code);
        const bool golden_response =
            golden != nullptr && row.response == golden->response;
        EXPECT_EQ(&row == golden, golden_response)
            << f.to_string() << " code " << code;
        EXPECT_EQ(&session.faulty_row(code), &row);
        dormant += golden_response;
        if (golden == nullptr) {
          full += batches;
          continue;
        }
        for (std::uint64_t b = 0; b < batches; ++b) {
          const std::uint64_t end =
              std::min<std::uint64_t>(64 * (b + 1), pm.num_inputs());
          for (std::uint64_t a = 64 * b; a < end; ++a) {
            if (row.response[a] != golden->response[a]) {
              ++changed;
              break;
            }
          }
        }
      }
      const SimCounters counters = session.counters();
      EXPECT_EQ(counters.cone_rows, pm.reachable().size());
      EXPECT_EQ(counters.dormant_rows, dormant);
      EXPECT_EQ(counters.checker_cone_batches, changed) << f.to_string();
      EXPECT_EQ(counters.checker_full_batches, full) << f.to_string();
      reused_rows += dormant;
      cone_batches += changed;
    }
    EXPECT_GT(reused_rows, 0u);
    EXPECT_GT(cone_batches, 0u);
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
  const core::CedHardware stuck = stuck_error_checker(d.hw);

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
// Verdict accounting invariants and the diagnostic upset model.

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
  CampaignOptions opts = upset_options(1);
  opts.walks = 3;
  const CampaignReport rep = run_campaign(d.circuit, d.hw, {}, opts);
  EXPECT_FALSE(rep.hard_guarantee());
  EXPECT_EQ(rep.num_units, static_cast<std::uint64_t>(d.circuit.s()));
  EXPECT_EQ(rep.walk_length, 96);  // a fixed word, as in earlier reports
  expect_consistent(rep);

  // Deterministic: an identical rerun produces identical bytes.
  const CampaignReport again = run_campaign(d.circuit, d.hw, {}, opts);
  EXPECT_EQ(storage::encode_campaign_report(rep),
            storage::encode_campaign_report(again));
}

/// The units a report judged, in report order.
std::vector<std::uint64_t> judged_units(const CampaignReport& rep) {
  std::vector<std::uint64_t> units;
  for (const FaultVerdict& v : rep.verdicts) units.push_back(v.unit);
  return units;
}

TEST(CampaignFlips, UpsetUnitsAreEveryMaskOfUpToKBitsAscending) {
  const Design d = suite_design("dk16", 2);
  const int s = d.circuit.s();
  for (const int k : {1, 2, s}) {
    CampaignOptions opts = upset_options(k);
    opts.walks = 1;
    const CampaignReport rep = run_campaign(d.circuit, d.hw, {}, opts);
    const std::vector<std::uint64_t> units = judged_units(rep);
    EXPECT_TRUE(std::is_sorted(units.begin(), units.end())) << "k=" << k;
    EXPECT_EQ(std::adjacent_find(units.begin(), units.end()), units.end());
    EXPECT_EQ(units, masks_up_to(s, k)) << "k=" << k;
    EXPECT_EQ(rep.num_units, units.size());
    expect_consistent(rep);
  }
  // k = 1 upsets one state bit at a time: one unit per bit.
  const CampaignReport single =
      run_campaign(d.circuit, d.hw, {}, upset_options(1));
  std::vector<std::uint64_t> bits;
  for (int b = 0; b < s; ++b) bits.push_back(std::uint64_t{1} << b);
  EXPECT_EQ(judged_units(single), bits);
}

TEST(CampaignFlips, OneHotDesignPastTwentyStateBits) {
  // One state bit per state: 21 bits, past the 20 the old scan over every
  // mask allowed. Upsets of up to 10 of 21 bits number exactly 2^20 - 1
  // (half of 2^21, less the empty mask), the most a campaign judges.
  benchdata::SyntheticSpec spec;
  spec.name = "onehot21";
  spec.inputs = 1;  // r + s stays within the truth tables' 22 variables
  spec.states = 21;
  spec.outputs = 2;
  spec.branches = 3;
  spec.seed = 7;
  const fsm::FsmCircuit circuit = fsm::synthesize_fsm(
      benchdata::generate_fsm(spec), fsm::EncodingKind::kOneHot);
  const int s = circuit.s();
  ASSERT_EQ(s, 21);
  const core::ParityFunc all = (core::ParityFunc{1} << circuit.n()) - 1;
  const std::vector<core::ParityFunc> parities = {all,
                                                  all & 0x5555555555555555ull};
  const core::CedHardware hw = core::synthesize_ced(circuit, parities);

  for (const int k : {1, 2}) {
    CampaignOptions opts = upset_options(k);
    opts.walks = 1;
    const CampaignReport rep = run_campaign(circuit, hw, {}, opts);
    EXPECT_FALSE(rep.truncated);
    EXPECT_EQ(rep.num_units,
              static_cast<std::uint64_t>(k == 1 ? s : s + s * (s - 1) / 2));
    const std::vector<std::uint64_t> units = judged_units(rep);
    EXPECT_TRUE(std::is_sorted(units.begin(), units.end()));
    for (const std::uint64_t u : units) {
      EXPECT_LE(std::popcount(u), k);
      EXPECT_LT(u, std::uint64_t{1} << s);
    }
    expect_consistent(rep);
  }
  // The key resolves the unit list without judging it: the cap is allowed,
  // one more bit per upset is refused by the key and the run alike.
  EXPECT_EQ(campaign_digest(circuit, hw, {}, upset_options(10)).size(), 32u);
  EXPECT_THROW(campaign_digest(circuit, hw, {}, upset_options(11)),
               std::invalid_argument);
  EXPECT_THROW(run_campaign(circuit, hw, {}, upset_options(11)),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Determinism: thread counts and checkpoint resumes are invisible in the
// encoded report.

TEST(CampaignDeterminism, ByteIdenticalAcrossThreadCounts) {
  // Both engines: the exhaustive stuck-at proof and the upset walks.
  const Design d = suite_design("dk16", 2);
  for (const FaultModel model :
       {FaultModel::kStuckAt, FaultModel::kTransientFlip}) {
    CampaignOptions opts = upset_options(2);
    opts.model = model;
    opts.policy = policy_of(model);
    if (model == FaultModel::kStuckAt) opts.flip_bits = 1;
    opts.walks = 2;
    opts.threads = 1;
    const CampaignReport serial =
        run_campaign(d.circuit, d.hw, d.faults, opts);
    EXPECT_GT(serial.activations, 0u) << to_string(model);
    // At 3 threads the unit claims cross shard boundaries unevenly.
    for (const int threads : {3, 4}) {
      opts.threads = threads;
      const CampaignReport parallel =
          run_campaign(d.circuit, d.hw, d.faults, opts);
      EXPECT_EQ(storage::encode_campaign_report(serial),
                storage::encode_campaign_report(parallel))
          << to_string(model) << " at " << threads << " threads";
    }
  }
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
      campaign_digest(d.circuit, d.hw, d.faults, opts, sharding);
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

TEST_F(CampaignStoreTest, DeadlineStopSavesNothingAndARerunIsClean) {
  const Design d = suite_design("dk16", 2);
  CampaignOptions opts;
  opts.latency_bound = 2;
  opts.threads = 3;
  ShardPlan sharding;
  sharding.num_shards = 5;
  const std::string reference = storage::encode_campaign_report(
      run_campaign(d.circuit, d.hw, d.faults, opts, sharding));

  const std::string key =
      campaign_digest(d.circuit, d.hw, d.faults, opts, sharding);
  storage::ArtifactStore store(dir_);
  const ShardHooks<CampaignShard> hooks =
      storage::make_campaign_hooks(store, key);

  // A deadline that has already tripped stops every unit before it is
  // judged: every shard is partial and none is saved.
  const std::atomic<bool> tripped{true};
  core::RunBudget budget;
  budget.interrupt = &tripped;
  CampaignOptions stopped = opts;
  stopped.deadline = core::Deadline::from(budget);
  const CampaignReport truncated =
      run_campaign(d.circuit, d.hw, d.faults, stopped, sharding, hooks);
  EXPECT_TRUE(truncated.truncated);
  EXPECT_NE(truncated.truncation_reason.find("deadline"), std::string::npos);
  EXPECT_TRUE(truncated.verdicts.empty());
  EXPECT_EQ(truncated.activations, 0u);
  EXPECT_EQ(truncated.num_units, d.faults.size());
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_FALSE(
        fs::exists(dir_ / (storage::campaign_shard_name(key, i) + ".ced")))
        << "shard " << i;
  }

  // The same hooks with a live deadline judge every unit afresh.
  const CampaignReport rerun =
      run_campaign(d.circuit, d.hw, d.faults, opts, sharding, hooks);
  EXPECT_FALSE(rerun.truncated);
  EXPECT_EQ(storage::encode_campaign_report(rerun), reference);
}

TEST_F(CampaignStoreTest, CorruptShardIsQuarantinedAndRecomputed) {
  const Design d = suite_design("dk16", 2);
  CampaignOptions opts;
  opts.latency_bound = 2;
  ShardPlan sharding;
  sharding.num_shards = 3;
  const std::string key =
      campaign_digest(d.circuit, d.hw, d.faults, opts, sharding);
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
  const ShardPlan four{4};
  const std::string base = campaign_digest(d.circuit, d.hw, d.faults, opts, four);
  EXPECT_EQ(base.size(), 32u);

  CampaignOptions valves = opts;
  valves.threads = 7;
  valves.deadline = core::Deadline::after(1e6);
  EXPECT_EQ(campaign_digest(d.circuit, d.hw, d.faults, valves, four), base);
  EXPECT_EQ(campaign_digest(d.circuit, d.hw, d.faults, opts, ShardPlan{4, 2}),
            base);

  CampaignOptions seed = opts;
  seed.seed ^= 1;
  EXPECT_NE(campaign_digest(d.circuit, d.hw, d.faults, seed, four), base);
  const CampaignOptions upsets = upset_options(1);
  EXPECT_NE(campaign_digest(d.circuit, d.hw, d.faults, upsets, four), base);
  EXPECT_NE(campaign_digest(d.circuit, d.hw, d.faults, opts, ShardPlan{5}),
            base);

  // The partition resolves as the run resolves it: the default plan is
  // the default shard count, and a count past the unit count keys as one
  // shard per unit.
  EXPECT_EQ(campaign_digest(d.circuit, d.hw, d.faults, opts),
            campaign_digest(d.circuit, d.hw, d.faults, opts,
                            ShardPlan{core::kDefaultCheckpointShards}));
  const auto units = static_cast<int>(masks_up_to(d.circuit.s(), 1).size());
  EXPECT_EQ(campaign_digest(d.circuit, d.hw, {}, upsets, ShardPlan{units}),
            campaign_digest(d.circuit, d.hw, {}, upsets, ShardPlan{units + 9}));

  // ...and it refuses what the run refuses.
  CampaignOptions walks = opts;
  walks.policy = CampaignPolicy::kRandomWalks;
  EXPECT_THROW(campaign_digest(d.circuit, d.hw, d.faults, walks),
               std::invalid_argument);
  EXPECT_THROW(campaign_digest(d.circuit, d.hw, d.faults, opts, ShardPlan{-1}),
               std::invalid_argument);
  EXPECT_THROW(
      campaign_digest(d.circuit, d.hw, d.faults, opts, ShardPlan{4, -1}),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The canonical enumerate_stuck_at order is a pinned contract.

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
                            fsm::EncodingKind::kBinary);
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
  rep.model = FaultModel::kTransientFlip;
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

TEST(CampaignCodec, DecoderRefusesRetiredModelAndForeignPolicy) {
  // Model 2 (the old multi-bit flip model) is retired, and each model has
  // one policy: a report claiming anything else is corrupt.
  const auto decodes = [](FaultModel model, CampaignPolicy policy) {
    CampaignReport rep;
    rep.model = model;
    rep.policy = policy;
    rep.latency_bound = 2;
    rep.horizon = 4;
    rep.histogram.assign(4, 0);
    return storage::decode_campaign_report(
               storage::encode_campaign_report(rep))
        .has_value();
  };
  EXPECT_TRUE(decodes(FaultModel::kStuckAt, CampaignPolicy::kExhaustive));
  EXPECT_TRUE(
      decodes(FaultModel::kTransientFlip, CampaignPolicy::kRandomWalks));
  EXPECT_FALSE(decodes(static_cast<FaultModel>(2),
                       CampaignPolicy::kRandomWalks));
  EXPECT_FALSE(decodes(FaultModel::kStuckAt, CampaignPolicy::kRandomWalks));
  EXPECT_FALSE(decodes(FaultModel::kTransientFlip, CampaignPolicy::kExhaustive));
  EXPECT_FALSE(decodes(FaultModel::kStuckAt, static_cast<CampaignPolicy>(2)));
}

// ---------------------------------------------------------------------------
// Flag names.

TEST(CampaignNames, FlagTablesRefuseMisspellings) {
  // ced_cli campaign reads --model through this table, so a misspelled or
  // retired value is refused rather than read as another campaign. The
  // report's labels (to_string, which BENCH_campaign.json holds) are not
  // flag spellings.
  EXPECT_EQ(names_joined(kFaultModelNames), "stuck|transient");
  for (const auto& e : kFaultModelNames) {
    EXPECT_EQ(enum_from_name(kFaultModelNames, e.name), e.value) << e.name;
    EXPECT_EQ(name_of(kFaultModelNames, e.value), e.name);
  }
  EXPECT_FALSE(enum_from_name(kFaultModelNames, "transeint").has_value());
  EXPECT_FALSE(enum_from_name(kFaultModelNames, "stuck-at").has_value());
  EXPECT_FALSE(enum_from_name(kFaultModelNames, "adversarial").has_value());
  EXPECT_STREQ(to_string(FaultModel::kStuckAt), "stuck-at");
  EXPECT_STREQ(to_string(FaultModel::kTransientFlip), "transient-flip");
  EXPECT_STREQ(to_string(CampaignPolicy::kExhaustive), "exhaustive");
  EXPECT_STREQ(to_string(CampaignPolicy::kRandomWalks), "walks");
  EXPECT_EQ(policy_of(FaultModel::kStuckAt), CampaignPolicy::kExhaustive);
  EXPECT_EQ(policy_of(FaultModel::kTransientFlip),
            CampaignPolicy::kRandomWalks);
}

// ---------------------------------------------------------------------------
// Option validation.

TEST(CampaignOptionsValidation, MalformedOptionsThrow) {
  const Design d = suite_design("dk16", 2);
  {
    CampaignOptions opts;  // exhaustive policy...
    opts.model = FaultModel::kTransientFlip;  // ...cannot judge upsets
    EXPECT_THROW(run_campaign(d.circuit, d.hw, {}, opts),
                 std::invalid_argument);
  }
  {
    CampaignOptions opts;  // stuck-at faults...
    opts.policy = CampaignPolicy::kRandomWalks;  // ...take the proof only
    EXPECT_THROW(run_campaign(d.circuit, d.hw, d.faults, opts),
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
    CampaignOptions opts = upset_options(1);
    opts.walks = 0;
    EXPECT_THROW(run_campaign(d.circuit, d.hw, {}, opts),
                 std::invalid_argument);
  }
  for (const int k : {0, d.circuit.s() + 1}) {  // outside 1..state bits
    EXPECT_THROW(run_campaign(d.circuit, d.hw, {}, upset_options(k)),
                 std::invalid_argument)
        << "k=" << k;
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
