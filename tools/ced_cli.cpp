// ced_cli — end-to-end command-line driver for the library.
//
//   ced_cli protect  <machine.kiss> [--latency=N] [--solver=lp|greedy|exact]
//                    [--encoding=binary|gray|onehot|spread] [--semantics=impl|machine]
//                    [--minimize-states] [--area-aware] [--verify] [--threads=N]
//                    [--budget-seconds=F] [--max-cases=N] [--max-lp-iters=N]
//                    [--max-roundings=N] [--max-exact-nodes=N]
//                    [--metrics-out=FILE] [--trace-out=FILE] [--prom-out=FILE]
//                    [--explain]
//   ced_cli analyze  <machine.kiss>
//   ced_cli generate --states=N --inputs=N --outputs=N [--seed=N] [--self-loops=F]
//   ced_cli verify   <machine.kiss> --store=DIR [--latency=N] [--solver=...]
//   ced_cli campaign <machine.kiss> --store=DIR [--model=stuck|transient|adversarial]
//                    [--policy=exhaustive|walks] [--persistence=N] [--k=N]
//                    [--walks=N] [--walk-length=N] [--seed=N] [--horizon=N]
//                    [--soak] [--json-out=FILE] [--resume] [--max-new-shards=N]
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
//   2  invalid input (unreadable file, malformed KISS2, bad flags)
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
#include <sstream>
#include <string>

#include "benchdata/generator.hpp"
#include "benchdata/suite.hpp"
#include "common/parallel.hpp"
#include "core/area_aware.hpp"
#include "core/latency.hpp"
#include "core/run.hpp"
#include "fsm/analysis.hpp"
#include "fsm/minimize_states.hpp"
#include "kiss/kiss.hpp"
#include "obs/export.hpp"
#include "sim/campaign.hpp"
#include "storage/store.hpp"

namespace {

using namespace ced;

constexpr int kExitOk = 0;
constexpr int kExitDegraded = 1;
constexpr int kExitInvalidInput = 2;
constexpr int kExitInternal = 3;

/// Thrown for problems in what the user handed us (files, flags, KISS2
/// text) so main() can map them to kExitInvalidInput instead of the
/// blanket internal-error path.
struct InvalidInputError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

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
               "[--solver=lp|greedy|exact]\n"
               "          [--encoding=binary|gray|onehot|spread] "
               "[--semantics=impl|machine]\n"
               "          [--minimize-states] [--area-aware] [--verify] "
               "[--threads=N]\n"
               "          [--budget-seconds=F] [--max-cases=N] "
               "[--max-lp-iters=N]\n"
               "          [--max-roundings=N] [--max-exact-nodes=N]\n"
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
               "[--model=stuck|transient|adversarial]\n"
               "          [--policy=exhaustive|walks] [--persistence=N] "
               "[--k=N] [--walks=N]\n"
               "          [--walk-length=N] [--seed=N] [--horizon=N] "
               "[--threads=N] [--soak]\n"
               "          [--json-out=FILE] [--resume] [--checkpoint-shards=N] "
               "[--max-new-shards=N]\n"
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
      "exact -> lp+rounding -> greedy -> duplication-style floor instead of\n"
      "aborting. A degraded run exits 1 and prints a resilience report on\n"
      "stderr.\n"
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
      "  --max-exact-nodes=N  50000000   branch-and-bound node cap for\n"
      "                                  --solver=exact\n"
      "\n"
      "Other protect flags:\n"
      "  --latency=N          2          detection-latency bound p\n"
      "  --threads=N          0          worker threads for extraction and\n"
      "                                  rounding; 0 = CED_THREADS env or\n"
      "                                  hardware concurrency, 1 = serial.\n"
      "                                  Results are identical at any count.\n"
      "  --solver=KIND        lp         lp | greedy | exact\n"
      "  --encoding=KIND      binary     binary | gray | onehot | spread\n"
      "  --semantics=KIND     impl       impl | machine (see DESIGN.md)\n"
      "  --minimize-states               merge compatible states first\n"
      "  --area-aware                    area-driven parity refinement\n"
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
      "  --model=KIND         stuck      stuck | transient | adversarial\n"
      "  --policy=KIND        exhaustive exhaustive (stuck only: worst case\n"
      "                                  over every bounded input path — a\n"
      "                                  proof) | walks (seeded random walks\n"
      "                                  from every reachable state)\n"
      "  --persistence=N      0          cycles a stuck fault stays active\n"
      "                                  after activation (0 = permanent)\n"
      "  --k=N                1          adversarial model: max flipped bits\n"
      "  --walks=N --walk-length=N       walk count per (fault, state) and\n"
      "                                  walk length (soak: 32 x 512)\n"
      "  --horizon=N          p+2        escape cutoff in cycles\n"
      "  --seed=N                        campaign seed (part of the key)\n"
      "  --soak                          long randomized sweep: walks policy\n"
      "                                  over all three fault models\n"
      "  --json-out=FILE      BENCH_campaign.json\n"
      "  --resume                        reuse checkpointed campaign shards\n"
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

std::string arg_value(int argc, char** argv, const char* key,
                      const char* fallback) {
  const std::size_t len = std::strlen(key);
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], key, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
  }
  return fallback;
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

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
      fsm::synthesize_fsm(f, fsm::EncodingKind::kBinary, {});
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
  // Negative or unparsable values mean "no limit" (same as 0) rather than
  // wrapping to a huge unsigned cap.
  const auto count = [&](const char* key) -> long long {
    const long long v = std::atoll(arg_value(argc, argv, key, "0").c_str());
    return v > 0 ? v : 0;
  };
  core::RunBudget b;
  const double secs =
      std::atof(arg_value(argc, argv, "--budget-seconds", "0").c_str());
  b.wall_seconds = secs > 0.0 ? secs : 0.0;
  b.max_cases = static_cast<std::size_t>(count("--max-cases"));
  b.max_lp_iterations = static_cast<int>(count("--max-lp-iters"));
  b.max_rounding_attempts = static_cast<int>(count("--max-roundings"));
  b.max_exact_nodes = static_cast<std::size_t>(count("--max-exact-nodes"));
  return b;
}

/// The shape flags protect, verify and campaign share: a stored scheme is
/// filed under a key they determine (--latency, --solver, --encoding,
/// --semantics, --checkpoint-shards), so all three parse them here.
RunConfig::Builder shape_from_args(int argc, char** argv) {
  const std::string solver = arg_value(argc, argv, "--solver", "lp");
  const std::string enc = arg_value(argc, argv, "--encoding", "binary");
  RunConfig::Builder b;
  b.latency(std::atoi(arg_value(argc, argv, "--latency", "2").c_str()))
      .solver(solver == "greedy"  ? core::SolverKind::kGreedy
              : solver == "exact" ? core::SolverKind::kExact
                                  : core::SolverKind::kLpRounding)
      .encoding(enc == "gray"     ? fsm::EncodingKind::kGray
                : enc == "onehot" ? fsm::EncodingKind::kOneHot
                : enc == "spread" ? fsm::EncodingKind::kSpread
                                  : fsm::EncodingKind::kBinary)
      .checkpoint_shards(std::atoi(
          arg_value(argc, argv, "--checkpoint-shards", "0").c_str()));
  if (arg_value(argc, argv, "--semantics", "impl") == std::string("machine")) {
    b.semantics(core::DiffSemantics::kMachineLevel);
  }
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
  const int threads =
      std::atoi(arg_value(argc, argv, "--threads", "0").c_str());

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
        .max_new_shards(
            std::atoi(arg_value(argc, argv, "--max-new-shards", "0").c_str()));
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

  const bool area_aware = has_flag(argc, argv, "--area-aware");
  const bool verify = has_flag(argc, argv, "--verify");
  bool verify_failed = false;
  if (area_aware || verify) {
    const core::Design design = core::derive_design(f, opts);
    if (area_aware) {
      core::ExtractOptions ex = opts.extract;
      ex.latency = opts.latency;
      ex.threads = opts.exec.threads;
      const auto table =
          core::extract_cases(design.circuit, design.faults, ex);
      const auto aa = core::minimize_parity_area(design.circuit, table);
      std::printf("area-aware refinement: %.1f -> %.1f (%d evaluations)\n",
                  aa.initial_area, aa.final_area, aa.evaluations);
    }
    if (verify) {
      verify_failed = !prove_bound(design.circuit, rep.hw, design.faults,
                                   opts.latency, opts.exec.threads);
    }
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
  storage::ArtifactStore store(required_store(argc, argv, "verify"));
  const StoredDesign d = load_stored_design(argc, argv, store);
  return prove_bound(d.design.circuit, d.hw, d.design.faults, d.latency, 0)
             ? kExitOk
             : kExitDegraded;
}

/// Runs one campaign, prints its verdict summary, persists the verdict
/// sheet, and appends its JSON entry. Returns the worst exit code observed.
int run_one_campaign(const fsm::FsmCircuit& circuit,
                     const core::CedHardware& hw,
                     const std::vector<sim::StuckAtFault>& faults,
                     const sim::CampaignOptions& copts,
                     const ShardPlan& plan,
                     storage::ArtifactStore& store, bool resume,
                     const std::string& label,
                     std::vector<std::string>& json_entries) {
  const auto units = sim::campaign_units(circuit, faults, copts);
  const int num_shards =
      core::resolve_checkpoint_shards(plan.num_shards, units.size());
  const std::string ckey =
      sim::campaign_digest(circuit, hw, faults, copts, num_shards);

  auto hooks = storage::make_campaign_hooks(store, ckey);
  if (!resume) hooks.load = {};  // checkpoint reuse is opt-in, like protect

  const auto t0 = std::chrono::steady_clock::now();
  const sim::CampaignReport rep =
      sim::run_campaign(circuit, hw, faults, copts, plan, hooks);
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
  json_entries.push_back(sim::campaign_report_json(
      rep, label, wall, resolve_threads(copts.threads)));

  if (rep.hard_guarantee() && !rep.bound_holds()) return kExitDegraded;
  return rep.truncated ? kExitDegraded : kExitOk;
}

/// `ced_cli campaign <machine.kiss> --store=DIR`: close the loop on the
/// paper's claim by injecting faults into the full protected design and
/// watching the checker fire. Loads the scheme stored by a `protect
/// --store` run (same shape flags), builds the Fig. 3 hardware, and runs
/// the fault-injection campaign; for §2-class stuck-at faults the bound is
/// asserted (violations exit 1), for flip models coverage is measured.
int cmd_campaign(int argc, char** argv) {
  if (argc < 3) return usage();
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

  const bool soak = has_flag(argc, argv, "--soak");
  sim::CampaignOptions base;
  base.latency_bound = d.latency;
  base.horizon = std::atoi(arg_value(argc, argv, "--horizon", "0").c_str());
  base.persistence =
      std::atoi(arg_value(argc, argv, "--persistence", "0").c_str());
  base.flip_bits = std::atoi(arg_value(argc, argv, "--k", "1").c_str());
  base.walks =
      std::atoi(arg_value(argc, argv, "--walks", soak ? "32" : "8").c_str());
  base.walk_length = std::atoi(
      arg_value(argc, argv, "--walk-length", soak ? "512" : "96").c_str());
  base.seed = static_cast<std::uint64_t>(std::strtoull(
      arg_value(argc, argv, "--seed", "212250478").c_str(), nullptr, 0));
  base.threads = std::atoi(arg_value(argc, argv, "--threads", "0").c_str());
  core::RunBudget budget = budget_from_args(argc, argv);
  budget.interrupt = &g_interrupted;
  base.deadline = core::Deadline::from(budget);
  base.obs = sinks;

  ShardPlan plan;
  plan.num_shards =
      std::atoi(arg_value(argc, argv, "--checkpoint-shards", "0").c_str());
  plan.max_new_shards =
      std::atoi(arg_value(argc, argv, "--max-new-shards", "0").c_str());
  const bool resume = has_flag(argc, argv, "--resume");

  // Which (model, policy) pairs run: one, or the full soak sweep.
  std::vector<sim::CampaignOptions> runs;
  if (soak) {
    for (const sim::FaultModel m :
         {sim::FaultModel::kStuckAt, sim::FaultModel::kTransientFlip,
          sim::FaultModel::kAdversarialFlip}) {
      sim::CampaignOptions o = base;
      o.model = m;
      o.policy = sim::CampaignPolicy::kRandomWalks;
      runs.push_back(o);
    }
  } else {
    const std::string model = arg_value(argc, argv, "--model", "stuck");
    const std::string policy = arg_value(
        argc, argv, "--policy", model == "stuck" ? "exhaustive" : "walks");
    sim::CampaignOptions o = base;
    o.model = model == "transient"     ? sim::FaultModel::kTransientFlip
              : model == "adversarial" ? sim::FaultModel::kAdversarialFlip
                                       : sim::FaultModel::kStuckAt;
    o.policy = policy == "walks" ? sim::CampaignPolicy::kRandomWalks
                                 : sim::CampaignPolicy::kExhaustive;
    runs.push_back(o);
  }

  ScopedSigint sigint_guard;
  std::vector<std::string> json_entries;
  int exit_code = kExitOk;
  try {
    for (const sim::CampaignOptions& copts : runs) {
      exit_code = std::max(
          exit_code, run_one_campaign(d.design.circuit, d.hw, d.design.faults,
                                      copts, plan, store, resume, argv[2],
                                      json_entries));
    }
  } catch (const std::invalid_argument& e) {
    throw InvalidInputError(e.what());
  }

  const std::string json_out =
      arg_value(argc, argv, "--json-out", "BENCH_campaign.json");
  if (!json_out.empty() && json_out != "-") {
    std::string doc = "{\"schema\":\"ced-campaign-v1\",\"campaigns\":[";
    for (std::size_t i = 0; i < json_entries.size(); ++i) {
      if (i != 0) doc += ",";
      doc += json_entries[i];
    }
    doc += "]}\n";
    write_text_file(json_out, doc);
    std::printf("wrote %s (%zu campaign%s)\n", json_out.c_str(),
                json_entries.size(), json_entries.size() == 1 ? "" : "s");
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
  return exit_code;
}

/// `ced_cli store verify|gc --store=DIR`: maintenance passes over the
/// artifact store itself.
int cmd_store(int argc, char** argv) {
  if (argc < 3) return usage();
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
  spec.states = std::atoi(arg_value(argc, argv, "--states", "12").c_str());
  spec.inputs = std::atoi(arg_value(argc, argv, "--inputs", "3").c_str());
  spec.outputs = std::atoi(arg_value(argc, argv, "--outputs", "3").c_str());
  spec.seed = static_cast<std::uint64_t>(
      std::atoll(arg_value(argc, argv, "--seed", "1").c_str()));
  spec.self_loop_bias =
      std::atof(arg_value(argc, argv, "--self-loops", "0.2").c_str());
  spec.branches = std::atoi(arg_value(argc, argv, "--branches", "5").c_str());
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
