// ced_cli — end-to-end command-line driver for the library.
//
//   ced_cli protect  <machine.kiss> [--latency=N] [--solver=lp|greedy]
//                    [--encoding=binary|gray|onehot|spread] [--semantics=impl|machine]
//                    [--minimize-states] [--verify] [--threads=N]
//                    [--budget-seconds=F] [--max-cases=N] [--max-lp-iters=N]
//                    [--max-roundings=N]
//                    [--metrics-out=FILE] [--trace-out=FILE] [--prom-out=FILE]
//                    [--explain]
//   ced_cli analyze  <machine.kiss>
//   ced_cli generate --states=N --inputs=N --outputs=N [--seed=N] [--self-loops=F]
//   ced_cli verify   <machine.kiss> --store=DIR [--latency=N] [--solver=...]
//   ced_cli campaign <machine.kiss> --store=DIR [--model=stuck|transient]
//                    [--horizon=N] [--budget-seconds=F] [--json-out=FILE]
//                    [--resume] [--max-new-shards=N]
//                    stuck only:     [--persistence=N]
//                    transient only: [--k=N] [--walks=N] [--seed=N]
//   ced_cli store    verify|gc|list --store=DIR
//   ced_cli store    show <name> --store=DIR
//   ced_cli help
//
// `protect` runs the full bounded-latency CED pipeline and prints the
// chosen parity functions and hardware costs; `analyze` prints STG and
// synthesis statistics; `generate` emits a synthetic KISS2 benchmark to
// stdout. A file name of "-" reads the machine from stdin.
//
// With --store=DIR, `protect` caches extraction results and checkpoints
// in a crash-safe artifact store: a warm rerun skips extraction entirely
// (watch t_extract in the stage-times line), an interrupted run resumed
// with --resume completes only the missing shards and produces the same
// tables byte for byte, and a corrupted artifact is quarantined and
// recomputed (reported on stderr, never a crash). `verify` re-proves the
// bounded-detection property for a scheme previously stored by `protect`.
//
// Exit codes:
//   0  success, full-quality result
//   1  degraded/truncated result (a budget valve fired, a solver fell back
//      down the cascade, or --verify found violations) — still usable, the
//      resilience report on stderr says exactly what happened
//   2  invalid input (unreadable file, malformed KISS2, bad flags: an
//      unknown flag, an unknown name, or a number that does not parse whole)
//   3  internal error — including interruption: Ctrl-C during `protect`
//      trips the run's cooperative interrupt valve, so in-flight work
//      checkpoints (with --store, completed shards are already durable and
//      a rerun with --resume picks them up) and the process exits 3
//      instead of dying mid-write

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>

#include "benchdata/generator.hpp"
#include "benchdata/suite.hpp"
#include "common/parallel.hpp"
#include "core/latency.hpp"
#include "core/run.hpp"
#include "flags.hpp"
#include "fsm/analysis.hpp"
#include "fsm/minimize_states.hpp"
#include "kiss/kiss.hpp"
#include "obs/export.hpp"
#include "sim/campaign.hpp"
#include "storage/store.hpp"

namespace {

using namespace ced;
using namespace ced::cli;

constexpr int kExitOk = 0;
constexpr int kExitDegraded = 1;
constexpr int kExitInvalidInput = 2;
constexpr int kExitInternal = 3;

/// SIGINT handling for long runs: the handler only sets this flag (the one
/// async-signal-safe thing it may do); the pipeline polls it through
/// RunBudget.interrupt at every stage's deadline check, so interruption
/// surfaces as an orderly truncated result, not a torn process.
std::atomic<bool> g_interrupted{false};

extern "C" void on_sigint(int) {
  g_interrupted.store(true, std::memory_order_relaxed);
}

/// Installs the SIGINT handler for one run's scope; restores the previous
/// disposition on exit so a second Ctrl-C after the run behaves normally.
class ScopedSigint {
 public:
  ScopedSigint() {
    struct sigaction sa = {};
    sa.sa_handler = on_sigint;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGINT, &sa, &prev_);
  }
  ~ScopedSigint() { ::sigaction(SIGINT, &prev_, nullptr); }
  ScopedSigint(const ScopedSigint&) = delete;
  ScopedSigint& operator=(const ScopedSigint&) = delete;

 private:
  struct sigaction prev_ = {};
};

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  ced_cli protect <machine.kiss> [--latency=N] "
               "[--solver=lp|greedy]\n"
               "          [--encoding=binary|gray|onehot|spread] "
               "[--semantics=impl|machine]\n"
               "          [--minimize-states] [--verify] [--threads=N]\n"
               "          [--budget-seconds=F] [--max-cases=N] "
               "[--max-lp-iters=N]\n"
               "          [--max-roundings=N]\n"
               "          [--store=DIR] [--resume] [--checkpoint-shards=N] "
               "[--max-new-shards=N]\n"
               "          [--metrics-out=FILE] [--trace-out=FILE] "
               "[--prom-out=FILE] [--explain]\n"
               "  ced_cli analyze <machine.kiss>\n"
               "  ced_cli generate --states=N --inputs=N --outputs=N "
               "[--seed=N] [--self-loops=F]\n"
               "  ced_cli generate --suite=NAME   emit a Table-1 suite "
               "circuit as KISS2\n"
               "  ced_cli verify <machine.kiss> --store=DIR [--latency=N] "
               "[--solver=...]\n"
               "  ced_cli campaign <machine.kiss> --store=DIR "
               "[--model=stuck|transient] [--horizon=N]\n"
               "          [--threads=N] [--budget-seconds=F] "
               "[--json-out=FILE] [--resume]\n"
               "          [--checkpoint-shards=N] [--max-new-shards=N]\n"
               "          stuck only: [--persistence=N]\n"
               "          transient only: [--k=N] [--walks=N] [--seed=N]\n"
               "  ced_cli store verify|gc|list --store=DIR\n"
               "  ced_cli store show <name> --store=DIR\n"
               "  ced_cli help      full flag reference incl. budget table\n");
  return kExitInvalidInput;
}

int cmd_help() {
  std::printf(
      "ced_cli — bounded-latency concurrent error detection driver\n"
      "\n"
      "Exit codes: 0 ok, 1 degraded/truncated result, 2 invalid input,\n"
      "            3 internal error.\n"
      "\n"
      "Budget flags (protect): every limit is cooperative — when it trips,\n"
      "the stage keeps its partial results and the solver cascade degrades\n"
      "lp+rounding -> greedy -> duplication-style floor instead of aborting.\n"
      "A degraded run exits 1 and prints a resilience report on stderr.\n"
      "0 or a negative budget means no limit. A numeric value must parse\n"
      "whole (a count of 1e6 is invalid input, not 1).\n"
      "\n"
      "  flag                 default    meaning\n"
      "  --budget-seconds=F   unlimited  wall-clock budget for the whole "
      "run\n"
      "  --max-cases=N        5000000    erroneous-case cap per table,\n"
      "                                  counted in each extraction shard\n"
      "                                  (one per thread without a store,\n"
      "                                  --checkpoint-shards with one); on\n"
      "                                  overflow the table truncates and\n"
      "                                  keeps the cases found so far\n"
      "  --max-lp-iters=N     200000     simplex pivot cap per LP solve\n"
      "  --max-roundings=N    40         randomized-rounding attempts per\n"
      "                                  LP solution\n"
      "\n"
      "Other protect flags:\n"
      "  --latency=N          2          detection-latency bound p\n"
      "  --threads=N          0          worker threads for extraction and\n"
      "                                  rounding; 0 = CED_THREADS env or\n"
      "                                  hardware concurrency, 1 = serial.\n"
      "                                  Results are identical at any count,\n"
      "                                  except for a no-store table that\n"
      "                                  degrades (DESIGN.md section 7).\n"
      "  --solver=KIND        lp         lp | greedy\n"
      "  --encoding=KIND      binary     binary | gray | onehot | spread\n"
      "  --semantics=KIND     impl       impl | machine (see DESIGN.md)\n"
      "  --minimize-states               merge compatible states first\n"
      "  --verify                        prove the bound: exhaustive stuck-at\n"
      "                                  campaign plus fault-free sweep\n"
      "\n"
      "Artifact store flags (protect):\n"
      "  --store=DIR                     cache extraction tables, shard\n"
      "                                  checkpoints and the parity scheme\n"
      "                                  in a crash-safe store; warm reruns\n"
      "                                  skip extraction (t_extract ~ 0)\n"
      "  --resume                        load checkpoint shards left by an\n"
      "                                  interrupted run; the completed run\n"
      "                                  is byte-identical to an\n"
      "                                  uninterrupted one\n"
      "  --checkpoint-shards=N 16        fault-shard partition for\n"
      "                                  checkpoints (part of the cache\n"
      "                                  key; independent of --threads)\n"
      "  --max-new-shards=N    0         stop after computing N new shards\n"
      "                                  (deterministic interruption for\n"
      "                                  testing resume; 0 = no limit)\n"
      "\n"
      "Observability flags (protect): collectors are off by default; any\n"
      "of these flags (or --store, which embeds the span tree in the run\n"
      "manifest) turns them on. Instrumentation is write-only: q and the\n"
      "parity masks are byte-identical with observability on or off.\n"
      "  --metrics-out=FILE              write the metrics snapshot as JSON\n"
      "  --trace-out=FILE                write the span trace as JSON\n"
      "  --prom-out=FILE                 write Prometheus text exposition\n"
      "  --explain                       print the human span tree +\n"
      "                                  metrics appendix to stdout\n"
      "\n"
      "Campaign (fault-injection against the stored scheme):\n"
      "  ced_cli campaign <m.kiss> --store=DIR runs the full protected\n"
      "      design (FSM + predictor + comparator) under injected faults and\n"
      "      classifies every activation episode as detected_in_bound,\n"
      "      detected_late or silent_escape. Pass the same shape flags\n"
      "      (--latency/--solver/--encoding/--semantics) as the protect run\n"
      "      that stored the scheme.\n"
      "  --model=KIND         stuck      stuck: stuck-at faults, judged by\n"
      "                                  the worst case over every bounded\n"
      "                                  input path (a proof) | transient:\n"
      "                                  state-register upsets, judged by\n"
      "                                  seeded random walks from every\n"
      "                                  reachable state\n"
      "  --horizon=N          p+2        escape cutoff in cycles\n"
      "  --budget-seconds=F   unlimited  wall-clock budget; the campaign\n"
      "                                  stops at the next unit boundary\n"
      "  --persistence=N      0          stuck only: cycles a fault stays\n"
      "                                  active after activation\n"
      "                                  (0 = permanent)\n"
      "  --k=N                1          transient only: most bits one\n"
      "                                  upset flips (every mask of 1..k)\n"
      "  --walks=N            8          transient only: walks per (upset,\n"
      "                                  state); a longer sweep: --walks=32\n"
      "  --seed=N                        transient only: walk seed (part of\n"
      "                                  the key; 0x... reads as hex)\n"
      "  --json-out=FILE                 write the verdict totals and\n"
      "                                  latency histogram there as JSON\n"
      "  --resume                        reuse checkpointed campaign shards\n"
      "  A flag the model does not read (--walks on a stuck-at campaign,\n"
      "  --persistence on a transient one) is invalid input.\n"
      "  For stuck-at faults with persistence 0 or >= p the campaign checks\n"
      "  the paper's hard guarantee: any late/silent episode exits 1. The\n"
      "  verdict sheet is stored under camp-<key> and is byte-identical at\n"
      "  any thread count and across kill/resume.\n"
      "\n"
      "Store subcommands:\n"
      "  ced_cli verify <m.kiss> --store=DIR   re-prove bounded detection\n"
      "      for the scheme stored by a previous protect run (pass the same\n"
      "      --latency/--solver/--encoding/--semantics/--checkpoint-shards)\n"
      "  ced_cli store verify --store=DIR      integrity-scan every\n"
      "      artifact; corrupt ones are quarantined (exit 1 if any)\n"
      "  ced_cli store gc --store=DIR          remove stray temp files,\n"
      "      quarantined artifacts and superseded shard checkpoints\n"
      "  ced_cli store list --store=DIR        list artifact names\n"
      "  ced_cli store show <name> --store=DIR print a run manifest\n"
      "      (config digest, extraction key, parities, resilience events,\n"
      "      stage times and the recorded span tree)\n");
  return kExitOk;
}

/// Read by every command that keys a stored scheme (shape_from_args) and
/// by those that load the machine (machine_from_args).
constexpr std::string_view kShapeFlags[] = {
    "--latency=",   "--solver=",           "--encoding=",
    "--semantics=", "--checkpoint-shards=", "--minimize-states"};
/// Read by budget_from_args.
constexpr std::string_view kBudgetFlags[] = {
    "--budget-seconds=", "--max-cases=", "--max-lp-iters=",
    "--max-roundings="};

fsm::Fsm load_machine(const std::string& path) {
  std::string text;
  if (path == "-") {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    text = ss.str();
  } else {
    std::ifstream in(path);
    if (!in) throw InvalidInputError("cannot open " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  }
  const Result<kiss::Kiss2> parsed = kiss::try_parse(text);
  if (!parsed) {
    throw InvalidInputError(parsed.status().to_text());
  }
  try {
    return fsm::Fsm::from_kiss(*parsed);
  } catch (const std::exception& e) {
    throw InvalidInputError(std::string("invalid machine: ") + e.what());
  }
}

int cmd_analyze(int argc, char** argv) {
  if (argc < 3) return usage();
  reject_unknown_flags(argc, argv, argv[1], {});
  const fsm::Fsm f = load_machine(argv[2]);
  const fsm::StgStats st = fsm::analyze_stg(f);
  std::printf("inputs=%d outputs=%d states=%d edges=%d\n", f.num_inputs(),
              f.num_outputs(), st.num_states, st.num_edges);
  std::printf("reachable=%d complete=%s self-loops=%d shortest-cycle=%d\n",
              st.reachable_states, f.is_complete() ? "yes" : "no",
              st.num_self_loops, st.shortest_cycle);
  const auto exact = fsm::minimize_states(f);
  const auto compat = fsm::merge_compatible_states(f);
  std::printf("state minimization: exact %d -> %d, compatible-merge -> %d\n",
              exact.states_before, exact.states_after, compat.states_after);
  const fsm::FsmCircuit c =
      fsm::synthesize_fsm(f, fsm::EncodingKind::kBinary);
  const auto area = logic::measure_area(
      c.netlist, logic::CellLibrary::mcnc(), static_cast<std::size_t>(c.s()));
  std::printf("synthesized (binary encoding): %d state bits, %zu gates, "
              "area %.1f\n",
              c.s(), area.gates, area.area);
  const auto faults = sim::enumerate_stuck_at(c.netlist);
  core::LatencyAnalysisOptions lo;
  lo.max_latency = 4;
  const auto la = core::analyze_useful_latency(c, faults, lo);
  std::printf("collapsed stuck-at faults: %zu; max useful CED latency: %d\n",
              faults.size(), la.max_useful_latency);
  return kExitOk;
}

core::RunBudget budget_from_args(int argc, char** argv) {
  // 0 or a negative value means "no limit" rather than wrapping to a huge
  // unsigned cap. Each count parses in its field's own type, so a value
  // that is not a number, or one the field cannot hold, is invalid input
  // naming the flag.
  core::RunBudget b;
  b.wall_seconds =
      std::max(numeric_flag(argc, argv, "--budget-seconds", 0.0), 0.0);
  b.max_cases = static_cast<std::size_t>(
      std::max(numeric_flag<long long>(argc, argv, "--max-cases", 0), 0LL));
  b.max_lp_iterations =
      std::max(numeric_flag(argc, argv, "--max-lp-iters", 0), 0);
  b.max_rounding_attempts =
      std::max(numeric_flag(argc, argv, "--max-roundings", 0), 0);
  return b;
}

/// The shape flags protect, verify and campaign share: a stored scheme is
/// filed under a key they determine (--latency, --solver, --encoding,
/// --semantics, --checkpoint-shards), so all three parse them here.
RunConfig::Builder shape_from_args(int argc, char** argv) {
  RunConfig::Builder b;
  b.latency(numeric_flag(argc, argv, "--latency", 2))
      .solver(named_flag(argc, argv, "--solver", core::kSolverNames,
                         core::SolverKind::kLpRounding))
      .encoding(named_flag(argc, argv, "--encoding", fsm::kEncodingNames,
                           fsm::EncodingKind::kBinary))
      .semantics(named_flag(argc, argv, "--semantics", core::kSemanticsNames,
                            core::DiffSemantics::kImplementable))
      .checkpoint_shards(numeric_flag(argc, argv, "--checkpoint-shards", 0));
  return b;
}

/// Validates a configuration; an out-of-contract flag is invalid input.
RunConfig build_config(const RunConfig::Builder& builder) {
  Result<RunConfig> cfg = builder.build();
  if (!cfg) throw InvalidInputError(cfg.status().message);
  return std::move(*cfg);
}

/// The machine argv[2] names, with compatible states merged first under
/// --minimize-states.
fsm::Fsm machine_from_args(int argc, char** argv) {
  fsm::Fsm f = load_machine(argv[2]);
  if (has_flag(argc, argv, "--minimize-states")) {
    const auto r = fsm::merge_compatible_states(f);
    std::printf("state minimization: %d -> %d states\n", r.states_before,
                r.states_after);
    f = r.machine;
  }
  return f;
}

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw InvalidInputError("cannot write " + path);
  out << text;
  if (!out.flush()) throw InvalidInputError("cannot write " + path);
}

/// `--store=DIR` of a command that reads a stored scheme; throws when
/// absent.
std::string required_store(int argc, char** argv, const char* command) {
  const std::string dir = arg_value(argc, argv, "--store", "");
  if (dir.empty()) {
    throw InvalidInputError(std::string(command) + " requires --store=DIR");
  }
  return dir;
}

/// A scheme stored by an earlier `protect --store` run and the design it
/// protects: the machine's design under the shape flags, the scheme's
/// latency bound and its Fig. 3 checker.
struct StoredDesign {
  core::Design design;
  int latency = 0;
  core::CedHardware hw;
};

/// Loads the scheme the shape flags name. They must match the protect run:
/// they are part of the cache key the scheme is filed under.
StoredDesign load_stored_design(int argc, char** argv,
                                storage::ArtifactStore& store) {
  const RunConfig cfg = build_config(shape_from_args(argc, argv));
  core::Design design =
      core::derive_design(machine_from_args(argc, argv), cfg.options());
  storage::StoredScheme stored =
      storage::load_stored_checker(store, design, cfg.options());
  for (const auto& e : store.drain_events()) {
    std::fprintf(stderr, "  [store] %s\n", e.c_str());
  }
  if (!stored.scheme) {
    const std::string dir = arg_value(argc, argv, "--store", "");
    throw InvalidInputError("no stored scheme " + stored.name + " in " + dir +
                            " (" + stored.scheme.status().message +
                            "); run `ced_cli protect <machine> --store=" +
                            dir + "` with the same shape flags first");
  }
  std::printf("scheme %s: p=%d, q=%zu parity trees\n", stored.name.c_str(),
              stored.scheme->latency, stored.scheme->parities.size());
  return {std::move(design), stored.scheme->latency, std::move(stored.hw)};
}

/// Names the first unit with a late or silent episode on stderr, so a
/// falsified scheme's failure is actionable.
void report_first_violation(const sim::CampaignReport& rep) {
  for (const sim::FaultVerdict& v : rep.verdicts) {
    if (v.detected_late > 0 || v.silent_escape > 0) {
      std::fprintf(stderr,
                   "  first violating unit: %s (late %llu, silent %llu)\n",
                   sim::unit_label(rep.model, v.unit).c_str(),
                   static_cast<unsigned long long>(v.detected_late),
                   static_cast<unsigned long long>(v.silent_escape));
      return;
    }
  }
}

/// The sequential proof behind `protect --verify` and `verify`: the
/// exhaustive stuck-at campaign at bound `latency`. Prints one
/// verification line; true when the bound holds.
bool prove_bound(const fsm::FsmCircuit& circuit, const core::CedHardware& hw,
                 std::span<const sim::StuckAtFault> faults, int latency,
                 int threads) {
  sim::CampaignOptions co;
  co.latency_bound = latency;
  co.threads = threads;
  const sim::CampaignReport rep = sim::run_campaign(circuit, hw, faults, co);
  std::printf("verification: %llu activations, %llu violations, "
              "%llu false alarms -> %s\n",
              static_cast<unsigned long long>(rep.activations),
              static_cast<unsigned long long>(rep.detected_late +
                                              rep.silent_escape),
              static_cast<unsigned long long>(rep.false_alarms),
              rep.bound_holds() ? "OK" : "FAILED");
  report_first_violation(rep);
  return rep.bound_holds();
}

int cmd_protect(int argc, char** argv) {
  if (argc < 3) return usage();
  static constexpr std::string_view kFlags[] = {
      "--threads=",     "--verify",      "--store=",
      "--resume",       "--max-new-shards=", "--metrics-out=",
      "--trace-out=",   "--prom-out=",   "--explain"};
  reject_unknown_flags(argc, argv, argv[1],
                       {kShapeFlags, kBudgetFlags, kFlags});
  const fsm::Fsm f = machine_from_args(argc, argv);

  // Observability: collectors are off unless an export flag asks for them
  // or a store is bound (run manifests embed the span tree). Results are
  // byte-identical either way — the sinks are write-only.
  const std::string metrics_out = arg_value(argc, argv, "--metrics-out", "");
  const std::string trace_out = arg_value(argc, argv, "--trace-out", "");
  const std::string prom_out = arg_value(argc, argv, "--prom-out", "");
  const bool explain = has_flag(argc, argv, "--explain");
  const std::string store_dir = arg_value(argc, argv, "--store", "");
  const bool observing = explain || !metrics_out.empty() ||
                         !trace_out.empty() || !prom_out.empty() ||
                         !store_dir.empty();
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  const obs::Sinks sinks =
      observing ? obs::Sinks{&tracer, &metrics, 0} : obs::Sinks{};

  std::optional<storage::ArtifactStore> store;
  std::optional<storage::StoreArchive> archive;
  if (!store_dir.empty()) {
    store.emplace(store_dir);
    store->set_sinks(sinks);
    archive.emplace(*store);
  }

  // 0 = auto (CED_THREADS env or hardware concurrency); negatives mean auto
  // too rather than wrapping.
  const int threads = numeric_flag(argc, argv, "--threads", 0);

  RunConfig::Builder builder = shape_from_args(argc, argv);
  builder.threads(threads >= 1 ? threads : 0)
      .budget(budget_from_args(argc, argv))
      .observe(sinks)
      .tune([](core::PipelineOptions& o) {
        o.budget.interrupt = &g_interrupted;
      });
  if (store) {
    builder.archive(&*archive)
        .resume(has_flag(argc, argv, "--resume"))
        .max_new_shards(numeric_flag(argc, argv, "--max-new-shards", 0));
  }
  const RunConfig cfg = build_config(builder);
  const core::PipelineOptions& opts = cfg.options();

  // Armed for the duration of the run (synthesis through store flush):
  // Ctrl-C trips the valve, the stages checkpoint and return truncated,
  // and the manifest below still records what happened.
  ScopedSigint sigint_guard;
  const core::PipelineReport rep = ced::run_pipeline(f, cfg);
  const core::ResilienceReport& res = rep.resilience;
  if (res.status.code == StatusCode::kInvalidInput) {
    std::fprintf(stderr, "error: %s\n", res.status.to_text().c_str());
    return kExitInvalidInput;
  }
  if (res.status.code == StatusCode::kInternal ||
      res.status.code == StatusCode::kInfeasible) {
    std::fprintf(stderr, "error: %s\n", res.status.to_text().c_str());
    return kExitInternal;
  }

  std::printf("original: %zu gates, area %.1f\n", rep.orig_gates,
              rep.orig_area);
  std::printf("faults: %zu collapsed stuck-at; erroneous cases: %zu\n",
              rep.num_faults, rep.num_cases);
  std::printf("latency bound p=%d -> q=%d parity trees\n", rep.latency,
              rep.num_trees);
  for (std::size_t l = 0; l < rep.parities.size(); ++l) {
    std::printf("  tree %zu: mask 0x%llx\n", l,
                static_cast<unsigned long long>(rep.parities[l]));
  }
  std::printf("CED hardware: %zu gates, area %.1f (%.1f%% of original)\n",
              rep.ced_gates, rep.ced_area,
              rep.orig_area > 0 ? 100.0 * rep.ced_area / rep.orig_area : 0.0);
  // A warm store makes the skipped extraction stage directly visible here.
  // The laps come from one boundary-consistent StageClock, so the printed
  // total is exactly their sum — no leaked gaps between stages.
  std::printf(
      "stage times: synth=%.3fs extract=%.3fs solve=%.3fs ced=%.3fs "
      "total=%.3fs\n",
      rep.t_synth, rep.t_extract, rep.t_solve, rep.t_ced,
      rep.t_synth + rep.t_extract + rep.t_solve + rep.t_ced);

  const std::string res_summary = res.summary();
  if (!res_summary.empty()) {
    std::fputs(res_summary.c_str(), stderr);
  }

  if (store) {
    // File the scheme where `ced_cli verify` and `campaign` look it up,
    // and the run manifest as the audit record.
    const std::string man_name =
        storage::record_run(*store, cfg, rep, argv[2], tracer.snapshot());
    std::printf("manifest: %s\n", man_name.c_str());
  }

  bool verify_failed = false;
  if (has_flag(argc, argv, "--verify")) {
    const core::Design design = core::derive_design(f, opts);
    verify_failed = !prove_bound(design.circuit, rep.hw, design.faults,
                                 opts.latency, opts.exec.threads);
  }

  // Exports go last so they cover the whole run, store traffic included.
  if (!metrics_out.empty()) {
    write_text_file(metrics_out, obs::metrics_json(metrics.snapshot()));
  }
  if (!prom_out.empty()) {
    write_text_file(prom_out, obs::prometheus_text(metrics.snapshot()));
  }
  if (!trace_out.empty()) {
    write_text_file(trace_out,
                    obs::trace_json(tracer.snapshot(), tracer.dropped()));
  }
  if (explain) {
    std::fputs(obs::explain_tree(tracer.snapshot(), metrics.snapshot()).c_str(),
               stdout);
  }
  if (g_interrupted.load(std::memory_order_relaxed)) {
    // Documented contract: interruption is exit 3. Everything durable
    // (checkpoint shards, the manifest) was flushed above; stderr says how
    // to pick the run back up.
    std::fprintf(stderr,
                 "interrupted: run stopped at the next valve check%s\n",
                 store ? "; rerun with --store --resume to continue from the "
                         "completed shards"
                       : "");
    return kExitInternal;
  }
  return (res.degraded() || verify_failed) ? kExitDegraded : kExitOk;
}

/// `ced_cli verify <machine.kiss> --store=DIR`: load the parity scheme a
/// previous `protect --store` run persisted and re-prove the
/// bounded-detection property against a freshly synthesized circuit.
int cmd_verify(int argc, char** argv) {
  if (argc < 3) return usage();
  static constexpr std::string_view kFlags[] = {"--store="};
  reject_unknown_flags(argc, argv, argv[1], {kShapeFlags, kFlags});
  storage::ArtifactStore store(required_store(argc, argv, "verify"));
  const StoredDesign d = load_stored_design(argc, argv, store);
  return prove_bound(d.design.circuit, d.hw, d.design.faults, d.latency, 0)
             ? kExitOk
             : kExitDegraded;
}

/// `ced_cli campaign <machine.kiss> --store=DIR`: close the loop on the
/// paper's claim by injecting faults into the full protected design and
/// watching the checker fire. Loads the scheme stored by a `protect
/// --store` run (same shape flags), builds the Fig. 3 hardware, and runs
/// the fault-injection campaign: stuck-at faults get the exhaustive proof
/// (violations exit 1), state upsets the seeded walks, whose coverage is
/// measured. Prints the verdict summary and stores the verdict sheet.
int cmd_campaign(int argc, char** argv) {
  if (argc < 3) return usage();
  static constexpr std::string_view kFlags[] = {
      "--store=",          "--model=",    "--horizon=",
      "--threads=",        "--json-out=", "--resume",
      "--max-new-shards=", "--metrics-out=", "--trace-out=",
      "--budget-seconds="};
  // Read by one model's engine only; the other model refuses them.
  static constexpr std::string_view kStuckFlags[] = {"--persistence="};
  static constexpr std::string_view kUpsetFlags[] = {
      "--k=", "--walks=", "--seed="};
  // The model parses before the stored design loads, so a misspelled name
  // or a flag the model's engine does not read fails fast.
  const sim::FaultModel model = named_flag(
      argc, argv, "--model", sim::kFaultModelNames, sim::FaultModel::kStuckAt);
  const bool stuck = model == sim::FaultModel::kStuckAt;
  reject_unknown_flags(
      argc, argv,
      std::string(argv[1]) + " --model=" +
          std::string(name_of(sim::kFaultModelNames, model)),
      {kShapeFlags, kFlags, stuck ? Flags(kStuckFlags) : Flags(kUpsetFlags)});
  const std::string metrics_out = arg_value(argc, argv, "--metrics-out", "");
  const std::string trace_out = arg_value(argc, argv, "--trace-out", "");
  const bool observing = !metrics_out.empty() || !trace_out.empty();
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  const obs::Sinks sinks =
      observing ? obs::Sinks{&tracer, &metrics, 0} : obs::Sinks{};

  storage::ArtifactStore store(required_store(argc, argv, "campaign"));
  store.set_sinks(sinks);
  const StoredDesign d = load_stored_design(argc, argv, store);

  sim::CampaignOptions copts;
  copts.model = model;
  copts.policy = sim::policy_of(model);
  copts.latency_bound = d.latency;
  copts.horizon = numeric_flag(argc, argv, "--horizon", 0);
  copts.persistence = numeric_flag(argc, argv, "--persistence", 0);
  copts.flip_bits = numeric_flag(argc, argv, "--k", 1);
  copts.walks = numeric_flag(argc, argv, "--walks", 8);
  copts.seed = numeric_flag<std::uint64_t>(argc, argv, "--seed", 212250478, 0);
  copts.threads = numeric_flag(argc, argv, "--threads", 0);
  core::RunBudget budget = budget_from_args(argc, argv);
  budget.interrupt = &g_interrupted;
  copts.deadline = core::Deadline::from(budget);
  copts.obs = sinks;

  ShardPlan plan;
  plan.num_shards = numeric_flag(argc, argv, "--checkpoint-shards", 0);
  plan.max_new_shards = numeric_flag(argc, argv, "--max-new-shards", 0);

  // Malformed options throw std::invalid_argument, which main() reports as
  // invalid input.
  ScopedSigint sigint_guard;
  const std::string ckey = sim::campaign_digest(
      d.design.circuit, d.hw, d.design.faults, copts, plan);
  auto hooks = storage::make_campaign_hooks(store, ckey);
  if (!has_flag(argc, argv, "--resume")) hooks.load = {};  // opt-in reuse
  const auto t0 = std::chrono::steady_clock::now();
  const sim::CampaignReport rep = sim::run_campaign(
      d.design.circuit, d.hw, d.design.faults, copts, plan, hooks);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (const auto& e : store.drain_events()) {
    std::fprintf(stderr, "  [store] %s\n", e.c_str());
  }

  std::printf("campaign %s/%s: %llu units, %llu activations (key %s)\n",
              sim::to_string(rep.model), sim::to_string(rep.policy),
              static_cast<unsigned long long>(rep.num_units),
              static_cast<unsigned long long>(rep.activations), ckey.c_str());
  std::printf("  in bound: %llu  late: %llu  silent escapes: %llu  "
              "benign units: %llu  false alarms: %llu\n",
              static_cast<unsigned long long>(rep.detected_in_bound),
              static_cast<unsigned long long>(rep.detected_late),
              static_cast<unsigned long long>(rep.silent_escape),
              static_cast<unsigned long long>(rep.benign_units),
              static_cast<unsigned long long>(rep.false_alarms));
  std::printf("  max latency: %d (bound p=%d, horizon %d)\n", rep.max_latency,
              rep.latency_bound, rep.horizon);
  if (rep.truncated) {
    std::fprintf(stderr, "  truncated: %s\n", rep.truncation_reason.c_str());
  }
  if (rep.hard_guarantee()) {
    std::printf("  guarantee: %s\n",
                rep.bound_holds() ? "HOLDS" : "VIOLATED");
    report_first_violation(rep);
  } else {
    const double covered =
        rep.activations > 0
            ? 100.0 * static_cast<double>(rep.detected_in_bound) /
                  static_cast<double>(rep.activations)
            : 0.0;
    std::printf("  coverage: %.1f%% of activations within bound "
                "(diagnostic model)\n",
                covered);
  }
  if (!rep.truncated) {
    storage::store_campaign_report(store, storage::campaign_report_name(ckey),
                                   rep);
    storage::drop_campaign_shards(store, ckey);
  }

  const std::string json_out = arg_value(argc, argv, "--json-out", "");
  if (!json_out.empty()) {
    write_text_file(json_out,
                    "{\"schema\":\"ced-campaign-v1\",\"campaigns\":[" +
                        sim::campaign_report_json(
                            rep, argv[2], wall,
                            resolve_threads(copts.threads)) +
                        "]}\n");
    std::printf("wrote %s (1 campaign)\n", json_out.c_str());
  }
  if (!metrics_out.empty()) {
    write_text_file(metrics_out, obs::metrics_json(metrics.snapshot()));
  }
  if (!trace_out.empty()) {
    write_text_file(trace_out,
                    obs::trace_json(tracer.snapshot(), tracer.dropped()));
  }
  if (g_interrupted.load(std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "interrupted: campaign stopped at the next unit boundary; "
                 "completed shards are durable — rerun with --resume\n");
    return kExitInternal;
  }
  if (rep.hard_guarantee() && !rep.bound_holds()) return kExitDegraded;
  return rep.truncated ? kExitDegraded : kExitOk;
}

/// `ced_cli store verify|gc --store=DIR`: maintenance passes over the
/// artifact store itself.
int cmd_store(int argc, char** argv) {
  if (argc < 3) return usage();
  static constexpr std::string_view kFlags[] = {"--store="};
  reject_unknown_flags(argc, argv, argv[1], {kFlags});
  const std::string sub = argv[2];
  const std::string store_dir = arg_value(argc, argv, "--store", "");
  if (store_dir.empty()) {
    throw InvalidInputError("store " + sub + " requires --store=DIR");
  }
  storage::ArtifactStore store(store_dir);
  if (!store.status().ok()) {
    throw InvalidInputError(store.status().message);
  }
  if (sub == "verify") {
    const storage::VerifyStats st = store.verify_all();
    for (const auto& e : store.drain_events()) {
      std::fprintf(stderr, "  [store] %s\n", e.c_str());
    }
    std::printf("scanned %zu artifacts: %zu ok, %zu quarantined\n", st.scanned,
                st.ok, st.quarantined);
    return st.quarantined > 0 ? kExitDegraded : kExitOk;
  }
  if (sub == "gc") {
    const storage::GcStats st = store.gc();
    std::printf("gc: removed %zu temp files, %zu quarantined artifacts, "
                "%zu superseded shard checkpoints\n",
                st.tmp_removed, st.quarantine_removed,
                st.stale_shards_removed);
    return kExitOk;
  }
  if (sub == "list") {
    auto names = store.list();
    std::sort(names.begin(), names.end());
    for (const std::string& name : names) std::printf("%s\n", name.c_str());
    return kExitOk;
  }
  if (sub == "show") {
    if (argc < 4 || argv[3][0] == '-') {
      throw InvalidInputError("store show requires an artifact name "
                              "(see `ced_cli store list`)");
    }
    const std::string name = argv[3];
    auto man = storage::load_manifest(store, name);
    for (const auto& e : store.drain_events()) {
      std::fprintf(stderr, "  [store] %s\n", e.c_str());
    }
    if (!man) {
      throw InvalidInputError("cannot load manifest " + name + ": " +
                              man.status().message);
    }
    std::printf("manifest %s\n", name.c_str());
    std::printf("  circuit: %s  p=%d  threads=%d\n", man->circuit.c_str(),
                man->latency, man->threads);
    std::printf("  config digest:  %s\n", man->config_digest.c_str());
    std::printf("  extraction key: %s\n", man->extraction_key.c_str());
    std::printf("  parities (q=%zu):\n", man->parities.size());
    for (std::size_t l = 0; l < man->parities.size(); ++l) {
      std::printf("    tree %zu: mask 0x%llx\n", l,
                  static_cast<unsigned long long>(man->parities[l]));
    }
    std::printf(
        "  stage times: synth=%.3fs extract=%.3fs solve=%.3fs ced=%.3fs "
        "total=%.3fs\n",
        man->t_synth, man->t_extract, man->t_solve, man->t_ced,
        man->t_synth + man->t_extract + man->t_solve + man->t_ced);
    const std::string summary = man->resilience.summary();
    if (!summary.empty()) std::fputs(summary.c_str(), stdout);
    if (!man->spans.empty()) {
      std::fputs(obs::explain_tree(man->spans, {}).c_str(), stdout);
    }
    return kExitOk;
  }
  return usage();
}

int cmd_generate(int argc, char** argv) {
  static constexpr std::string_view kFlags[] = {
      "--suite=", "--states=",     "--inputs=",  "--outputs=",
      "--seed=",  "--self-loops=", "--branches="};
  reject_unknown_flags(argc, argv, argv[1], {kFlags});
  // --suite=NAME emits the exact KISS2 text of one Table-1 suite circuit
  // (the profile-matched stand-ins are generated, so the text is
  // reproducible); this is how CI hands suite circuits to `protect`.
  const std::string suite = arg_value(argc, argv, "--suite", "");
  if (!suite.empty()) {
    for (const auto& e : benchdata::mcnc_suite()) {
      if (e.name == suite) {
        std::fputs(benchdata::generate_kiss(e.spec).c_str(), stdout);
        return kExitOk;
      }
    }
    throw InvalidInputError("unknown suite circuit: " + suite);
  }
  benchdata::SyntheticSpec spec;
  spec.name = "generated";
  spec.states = numeric_flag(argc, argv, "--states", 12);
  spec.inputs = numeric_flag(argc, argv, "--inputs", 3);
  spec.outputs = numeric_flag(argc, argv, "--outputs", 3);
  spec.seed = static_cast<std::uint64_t>(
      numeric_flag<long long>(argc, argv, "--seed", 1));
  spec.self_loop_bias = numeric_flag(argc, argv, "--self-loops", 0.2);
  spec.branches = numeric_flag(argc, argv, "--branches", 5);
  try {
    std::fputs(benchdata::generate_kiss(spec).c_str(), stdout);
  } catch (const std::invalid_argument& e) {
    throw InvalidInputError(e.what());
  }
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    if (std::strcmp(argv[1], "analyze") == 0) return cmd_analyze(argc, argv);
    if (std::strcmp(argv[1], "protect") == 0) return cmd_protect(argc, argv);
    if (std::strcmp(argv[1], "generate") == 0) return cmd_generate(argc, argv);
    if (std::strcmp(argv[1], "verify") == 0) return cmd_verify(argc, argv);
    if (std::strcmp(argv[1], "campaign") == 0) return cmd_campaign(argc, argv);
    if (std::strcmp(argv[1], "store") == 0) return cmd_store(argc, argv);
    if (std::strcmp(argv[1], "help") == 0 ||
        std::strcmp(argv[1], "--help") == 0) {
      return cmd_help();
    }
  } catch (const InvalidInputError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitInvalidInput;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: invalid input: %s\n", e.what());
    return kExitInvalidInput;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return kExitInternal;
  }
  return usage();
}
