// Perf-trajectory harness: per-circuit wall-clock of the pipeline's hot
// stages (extraction / solve / CED synthesis) at a ladder of thread counts,
// plus the final q, emitted both as a human table and as machine-readable
// JSON (BENCH_perf.json) so the repo has a perf history to track across
// changes.
//
//   bench_perf [--quick|--circuits=a,b,c] [--threads=N] [--latency=P]
//              [--out=path.json] [--kernel-smoke]
//
// --threads caps the ladder (default: CED_THREADS env or hardware
// concurrency); the ladder is 1, 2, 4, ... up to that cap, cap included.
// Every run at every thread count must produce the same q — the harness
// exits 1 on a determinism mismatch or a degraded run, 0 otherwise.
//
// On top of the ladder, every circuit gets a solver-stage section at p=2,
// threads=1 — {condensed, raw} — plus a kernel-throughput microbench
// (case-evaluations/s) with one row per evaluation path: the per-case
// core::covers reference loop, the runtime-dispatched vector engine
// (per-beta queries), and the cache-blocked batch pass (CoverBatch).
//
// Each circuit also gets an LP section at p=3 — threads {1, 4} — timing
// the solver stage and recording the revised LP's pivot/refactorization
// counts and warm-start hit rate. Both runs must select the same q and a
// complete cover; any divergence is an exit-1 failure.
//
// --kernel-smoke runs only the backend identity gate (small suite by
// default, no ladder, no JSON): at p=2, the parities selected on the SIMD
// backend this host dispatches to and under ScopedSimdLevel(kNone) (the
// plain word loop) must be byte-identical, at threads 1 AND 4 (use
// --circuits=s1488 for the CI pin on the paper's largest instance).

#include <algorithm>
#include <chrono>
#include <iterator>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/cpu.hpp"
#include "common/parallel.hpp"
#include "core/coverkernel.hpp"
#include "core/parity.hpp"
#include "obs/json.hpp"

namespace {

std::string arg_value(int argc, char** argv, const char* key,
                      const char* fallback) {
  const std::size_t len = std::strlen(key);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], key, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
  }
  return fallback;
}

bool flag_present(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

std::vector<int> thread_ladder(int max_threads) {
  std::vector<int> ladder;
  for (int t = 1; t < max_threads; t *= 2) ladder.push_back(t);
  ladder.push_back(max_threads);
  return ladder;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Run {
  int threads = 0;
  double t_synth = 0, t_extract = 0, t_solve = 0, t_ced = 0, t_total = 0;
  std::vector<int> qs;
  bool degraded = false;
};

/// One run of the p=2 solver-stage section.
struct SolveRun {
  bool condense = false;
  double t_solve = 0;
  std::vector<ced::core::ParityFunc> parities;
  std::size_t condensed_cases = 0;
  bool degraded = false;
};

/// One kernel-throughput microbench row (million case-evals per second):
///   covers     — per-case core::covers reference loop (core/parity.hpp)
///   simd       — runtime-dispatched vector engine (per-beta queries)
///   simd-batch — CoverBatch: the whole beta set in one blocked pass
struct KernelRow {
  std::string mode;
  double mcps = 0;
};

/// Kernel-throughput microbench numbers.
struct KernelBench {
  double build_s = 0;
  std::vector<KernelRow> rows;
  double mcps(const char* mode) const {
    for (const KernelRow& r : rows) {
      if (r.mode == mode) return r.mcps;
    }
    return 0;
  }
};

/// Latency of the LP section (the paper's Table 1 goes up to p=3, and
/// p=3 is where the LPs are largest and the warm start has to pay off).
constexpr int kLpLatency = 3;

/// One run of the p=3 LP section.
struct LpRun {
  int threads = 0;
  double t_solve = 0;
  std::size_t q = 0;
  bool covers = false;  ///< feasibility verdict: selected set covers all
  int lp_solves = 0;
  int lp_iterations = 0;
  int lp_phase1_iterations = 0;
  int lp_refactorizations = 0;
  int lp_warm_attempts = 0;
  int lp_warm_hits = 0;
  std::vector<int> qs_tried;  ///< binary-search q probes, in probe order
  bool degraded = false;
};

struct CircuitPerf {
  std::string name;
  std::size_t num_cases = 0;
  std::vector<Run> runs;
  // p=2 solver-stage section (empty p2_runs = table build failed).
  std::size_t p2_cases = 0;
  std::vector<SolveRun> p2_runs;
  KernelBench kernel;
  // p=3 LP section (empty lp_runs = table build failed).
  std::size_t lp_cases = 0;
  std::vector<LpRun> lp_runs;
};

/// Synthesizes the circuit and extracts its detectability table at latency
/// `p`, serially (the solver sections fix threads=1 for extraction).
ced::core::DetectabilityTable build_table(const std::string& name, int p) {
  using namespace ced;
  const fsm::Fsm f = benchdata::suite_fsm(name);
  const fsm::FsmCircuit circuit =
      fsm::synthesize_fsm(f, fsm::EncodingKind::kBinary, {});
  const auto faults = sim::enumerate_stuck_at(circuit.netlist, {});
  core::ExtractOptions ex;
  ex.latency = p;
  ex.threads = 1;
  return core::extract_cases(circuit, faults, ex);
}

/// Runs the solver stage (greedy seeding + Algorithm 1, i.e. exactly what
/// the pipeline's t_solve measures) on `table`.
SolveRun solve_stage(const ced::core::DetectabilityTable& table,
                     bool condense, int threads = 1) {
  using namespace ced;
  SolveRun r;
  r.condense = condense;
  core::PipelineOptions opts;
  opts.exec.threads = threads;
  opts.condense = condense;
  core::Algorithm1Stats stats;
  core::ResilienceReport resilience;
  const auto t0 = std::chrono::steady_clock::now();
  r.parities = core::select_parities_resilient(table, opts, core::Deadline{},
                                               &stats, {}, resilience);
  r.t_solve = seconds_since(t0);
  r.condensed_cases = stats.condensed_cases;
  r.degraded = resilience.degraded();
  return r;
}

const char* condense_name(const SolveRun& r) {
  return r.condense ? "condensed" : "raw";
}

/// Deterministic beta stream for the throughput microbench (splitmix64).
std::vector<ced::core::ParityFunc> bench_betas(int n, std::size_t count) {
  std::vector<ced::core::ParityFunc> betas;
  betas.reserve(count);
  const std::uint64_t mask =
      n >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  while (betas.size() < count) {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    const std::uint64_t beta = z & mask;
    betas.push_back(beta != 0 ? beta : 1);
  }
  return betas;
}

/// Repeats `body` until at least 50ms elapsed; returns seconds per call.
template <typename F>
double time_per_call(F&& body) {
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t reps = 0;
  double elapsed = 0;
  do {
    body();
    ++reps;
    elapsed = seconds_since(t0);
  } while (elapsed < 0.05);
  return elapsed / static_cast<double>(reps);
}

KernelBench bench_kernel(const ced::core::DetectabilityTable& table) {
  using namespace ced;
  KernelBench kb;
  if (table.cases.empty()) return kb;
  const auto betas = bench_betas(table.num_bits, 32);
  const double m = static_cast<double>(table.cases.size());
  const double evals = m * static_cast<double>(betas.size());
  const auto mcps = [&](double secs) {
    return secs > 0 ? evals / secs / 1e6 : 0;
  };

  // volatile sink so the evaluation loops cannot be optimized away.
  volatile std::size_t sink = 0;

  const double t_covers = time_per_call([&] {
    std::size_t acc = 0;
    for (const core::ParityFunc beta : betas) {
      for (const core::ErroneousCase& ec : table.cases) {
        acc += core::covers(beta, ec) ? 1 : 0;
      }
    }
    sink = acc;
  });
  kb.rows.push_back({"covers", mcps(t_covers)});

  std::optional<core::CoverKernel> kernel;
  kb.build_s = time_per_call([&] { kernel.emplace(table); });
  const double t_simd = time_per_call([&] {
    std::size_t acc = 0;
    for (const core::ParityFunc beta : betas) {
      acc += kernel->coverage_count(beta);
    }
    sink = acc;
  });
  kb.rows.push_back({"simd", mcps(t_simd)});

  core::CoverBatch batch(*kernel);
  std::vector<std::size_t> counts(betas.size());
  const double t_batch = time_per_call([&] {
    batch.counts(betas, counts);
    sink = counts.back();
  });
  kb.rows.push_back({"simd-batch", mcps(t_batch)});
  (void)sink;
  return kb;
}

/// Runs the p=2 solver-stage section + kernel microbench for one circuit.
void run_solver_p2(CircuitPerf& cp) {
  using namespace ced;
  core::DetectabilityTable table;
  try {
    table = build_table(cp.name, 2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[bench_perf] %s: p=2 table build failed: %s\n",
                 cp.name.c_str(), e.what());
    return;  // already reported as a degraded sweep row
  }
  cp.p2_cases = table.cases.size();
  for (const bool condense : {true, false}) {
    cp.p2_runs.push_back(solve_stage(table, condense));
  }
  cp.kernel = bench_kernel(table);
}

/// The --kernel-smoke gate: byte-identical parities on the dispatched SIMD
/// backend and the forced word-loop fallback, at threads 1 AND 4
/// (condensed table, p=2). Returns false on any divergence or degraded
/// run; fills `cp.p2_runs` for reporting.
bool run_kernel_smoke(CircuitPerf& cp) {
  using namespace ced;
  core::DetectabilityTable table;
  try {
    table = build_table(cp.name, 2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[bench_perf] %s: p=2 table build failed: %s\n",
                 cp.name.c_str(), e.what());
    return false;
  }
  cp.p2_cases = table.cases.size();
  bool ok = true;
  std::vector<core::ParityFunc> ref;
  for (const SimdLevel level : {simd_level(), SimdLevel::kNone}) {
    const ScopedSimdLevel cap(level);
    for (const int threads : {1, 4}) {
      SolveRun r = solve_stage(table, /*condense=*/true, threads);
      if (r.degraded) ok = false;
      if (ref.empty()) ref = r.parities;
      if (r.parities != ref) {
        std::fprintf(stderr,
                     "[bench_perf] %s: simd=%s threads=%d selected q=%zu "
                     "with different parities than the reference (q=%zu) "
                     "— kernel backend divergence\n",
                     cp.name.c_str(), to_string(level), threads,
                     r.parities.size(), ref.size());
        ok = false;
      }
      cp.p2_runs.push_back(std::move(r));
    }
  }
  return ok;
}

/// Runs the solver stage once at the given thread count.
LpRun solve_lp(const ced::core::DetectabilityTable& table, int threads) {
  using namespace ced;
  LpRun r;
  r.threads = threads;
  core::PipelineOptions opts;
  opts.exec.threads = threads;
  core::Algorithm1Stats stats;
  core::ResilienceReport resilience;
  const auto t0 = std::chrono::steady_clock::now();
  const auto parities = core::select_parities_resilient(
      table, opts, core::Deadline{}, &stats, {}, resilience);
  r.t_solve = seconds_since(t0);
  r.q = parities.size();
  r.covers = core::covers_all(parities, table);
  r.lp_solves = stats.lp_solves;
  r.lp_iterations = stats.lp_iterations;
  r.lp_phase1_iterations = stats.lp_phase1_iterations;
  r.lp_refactorizations = stats.lp_refactorizations;
  r.lp_warm_attempts = stats.lp_warm_attempts;
  r.lp_warm_hits = stats.lp_warm_hits;
  r.qs_tried = stats.qs_tried;
  r.degraded = resilience.degraded();
  return r;
}

double warm_hit_rate(const LpRun& r) {
  return r.lp_warm_attempts > 0 ? static_cast<double>(r.lp_warm_hits) /
                                      static_cast<double>(r.lp_warm_attempts)
                                : 0.0;
}

/// Runs the p=3 LP section — threads {1, 4} — for one circuit; returns
/// false when the runs disagree on q or select an incomplete cover (the
/// harness must fail: the thread count may change wall-clock only).
bool run_lp_p3(CircuitPerf& cp) {
  using namespace ced;
  core::DetectabilityTable table;
  try {
    table = build_table(cp.name, kLpLatency);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[bench_perf] %s: p=%d table build failed: %s\n",
                 cp.name.c_str(), kLpLatency, e.what());
    return true;  // already reported as a degraded sweep row
  }
  cp.lp_cases = table.cases.size();
  for (const int threads : {1, 4}) {
    cp.lp_runs.push_back(solve_lp(table, threads));
  }
  bool ok = true;
  for (const LpRun& r : cp.lp_runs) {
    if (!r.covers) {
      std::fprintf(stderr,
                   "[bench_perf] %s: threads=%d selected an incomplete "
                   "cover (q=%zu) — feasibility violation\n",
                   cp.name.c_str(), r.threads, r.q);
      ok = false;
    }
    if (r.q != cp.lp_runs.front().q) {
      std::fprintf(stderr,
                   "[bench_perf] %s: threads=%d selected q=%zu but "
                   "threads=%d selected q=%zu — determinism violation\n",
                   cp.name.c_str(), r.threads, r.q,
                   cp.lp_runs.front().threads, cp.lp_runs.front().q);
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ced;
  const bool kernel_smoke = flag_present(argc, argv, "--kernel-smoke");
  const auto circuits =
      kernel_smoke && !flag_present(argc, argv, "--quick") &&
              arg_value(argc, argv, "--circuits", "").empty()
          ? benchdata::small_suite_names()
          : bench::circuits_from_args(argc, argv);

  if (kernel_smoke) {
    // CI gate: byte-identical parities on the dispatched SIMD backend and
    // the plain word loop at p=2, threads 1 and 4.
    std::printf("[kernel-smoke] simd dispatch: %s\n",
                to_string(simd_level()));
    bool ok = true;
    for (const auto& name : circuits) {
      CircuitPerf cp;
      cp.name = name;
      const bool circuit_ok = run_kernel_smoke(cp);
      ok = ok && circuit_ok;
      if (!cp.p2_runs.empty()) {
        std::printf("[kernel-smoke] %-8s q=%zu (%zu cases) %s\n",
                    name.c_str(), cp.p2_runs.front().parities.size(),
                    cp.p2_cases, circuit_ok ? "ok" : "MISMATCH");
        std::fflush(stdout);
      }
    }
    std::printf(
        "[kernel-smoke] %s vs none backend equivalence at threads 1+4: "
        "%s\n",
        to_string(simd_level()), ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  }

  const int max_threads =
      resolve_threads(bench::threads_from_args(argc, argv));
  const int p_max = std::atoi(arg_value(argc, argv, "--latency", "3").c_str());
  const std::string out_path =
      arg_value(argc, argv, "--out", "BENCH_perf.json");
  std::vector<int> ps;
  for (int p = 1; p <= std::max(p_max, 1); ++p) ps.push_back(p);
  const auto ladder = thread_ladder(max_threads);

  std::printf("Pipeline wall-clock vs worker threads (latency sweep 1..%d)\n",
              p_max);
  std::printf("%-8s | %7s | %9s %9s %9s %9s | %s\n", "Circuit", "threads",
              "extract_s", "solve_s", "ced_s", "total_s", "q(1..p)");
  std::printf("%s\n", std::string(76, '-').c_str());

  std::vector<CircuitPerf> perf;
  bool failed = false;
  for (const auto& name : circuits) {
    CircuitPerf cp;
    cp.name = name;
    for (const int threads : ladder) {
      core::PipelineOptions opts;
      opts.exec.threads = threads;
      Run run;
      run.threads = threads;
      const auto reps = bench::sweep_circuit(name, ps, opts);
      for (const auto& r : reps) {
        run.qs.push_back(r.num_trees);
        run.t_solve += r.t_solve;
        run.t_ced += r.t_ced;
        run.degraded = run.degraded || r.resilience.degraded();
      }
      if (!reps.empty()) {
        run.t_synth = reps.back().t_synth;
        run.t_extract = reps.back().t_extract;  // extracted once per sweep
        cp.num_cases = reps.back().num_cases;
      }
      // The pipeline's StageClock takes one clock sample per stage
      // boundary, so the stage laps telescope: their sum IS the pipeline
      // wall-clock, with no harness overhead or inter-stage gaps mixed in.
      run.t_total = run.t_synth + run.t_extract + run.t_solve + run.t_ced;
      std::string qs_text;
      for (const int q : run.qs) {
        qs_text += (qs_text.empty() ? "" : ",") + std::to_string(q);
      }
      std::printf("%-8s | %7d | %9.3f %9.3f %9.3f %9.3f | %s%s\n",
                  name.c_str(), threads, run.t_extract, run.t_solve, run.t_ced,
                  run.t_total, qs_text.c_str(), run.degraded ? " *" : "");
      std::fflush(stdout);
      if (run.degraded) failed = true;
      if (!cp.runs.empty() && cp.runs.front().qs != run.qs) {
        std::fprintf(stderr,
                     "[bench_perf] %s: q differs between threads=%d and "
                     "threads=%d — determinism violation\n",
                     name.c_str(), cp.runs.front().threads, threads);
        failed = true;
      }
      cp.runs.push_back(std::move(run));
    }
    // Solver stage + kernel throughput at p=2, threads=1.
    run_solver_p2(cp);
    for (const SolveRun& r : cp.p2_runs) {
      std::printf("%-8s | %19s | solve %9.3fs | q=%zu%s\n", cp.name.c_str(),
                  condense_name(r), r.t_solve, r.parities.size(),
                  r.degraded ? " *" : "");
    }
    if (!cp.kernel.rows.empty()) {
      std::printf("%-8s | kernel: build %.4fs", cp.name.c_str(),
                  cp.kernel.build_s);
      for (const KernelRow& kr : cp.kernel.rows) {
        std::printf(", %s %.1f Mcase/s", kr.mode.c_str(), kr.mcps);
      }
      std::printf("\n");
    }
    // LP section at p=3, threads {1, 4}.
    if (!run_lp_p3(cp)) failed = true;
    for (const LpRun& r : cp.lp_runs) {
      std::printf(
          "%-8s | lp t=%d | solve %9.3fs | q=%zu pivots=%d "
          "(ph1 %d) refac=%d warm %d/%d%s\n",
          cp.name.c_str(), r.threads, r.t_solve, r.q, r.lp_iterations,
          r.lp_phase1_iterations, r.lp_refactorizations, r.lp_warm_hits,
          r.lp_warm_attempts, r.degraded ? " *" : "");
    }
    std::fflush(stdout);
    perf.push_back(std::move(cp));
  }

  // Headline 1: extraction+solve speedup at the top of the ladder on the
  // largest instance (most erroneous cases — the circuit the paper's
  // tables sweat over is also the one parallelism must pay off on).
  const CircuitPerf* largest = nullptr;
  for (const auto& cp : perf) {
    if (largest == nullptr || cp.num_cases > largest->num_cases) {
      largest = &cp;
    }
  }
  if (largest != nullptr && ladder.size() > 1) {
    const Run& serial = largest->runs.front();
    const Run& wide = largest->runs.back();
    const double before = serial.t_extract + serial.t_solve;
    const double after = wide.t_extract + wide.t_solve;
    if (after > 0.0) {
      std::printf("%s\n", std::string(76, '-').c_str());
      std::printf(
          "largest circuit %s: extract+solve %.3fs @1 thread -> %.3fs @%d "
          "threads (%.2fx)\n",
          largest->name.c_str(), before, after, wide.threads, before / after);
    }
  }
  // Headline 2: kernel microbench on the largest instance at p=2 — the
  // vector engine and the batch pass against the per-case reference loop.
  if (largest != nullptr) {
    const double kb_covers = largest->kernel.mcps("covers");
    const double kb_simd = largest->kernel.mcps("simd");
    const double kb_batch = largest->kernel.mcps("simd-batch");
    if (kb_covers > 0 && kb_simd > 0) {
      std::printf("%s\n", std::string(76, '-').c_str());
      std::printf(
          "largest circuit %s kernel microbench (%s): simd %.1fx, batch "
          "%.1fx over the core::covers loop\n",
          largest->name.c_str(), to_string(simd_level()), kb_simd / kb_covers,
          kb_batch / kb_covers);
    }
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "[bench_perf] cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"schema\": \"ced-bench-perf-v5\",\n");
  std::fprintf(out, "  \"latency_max\": %d,\n", p_max);
  std::fprintf(out, "  \"hardware_threads\": %d,\n", resolve_threads(0));
  std::fprintf(out, "  \"simd\": \"%s\",\n", to_string(simd_level()));
  std::fprintf(out, "  \"circuits\": [\n");
  for (std::size_t c = 0; c < perf.size(); ++c) {
    const auto& cp = perf[c];
    // Names pass through json_escape and timings through json_number so the
    // file parses even with hostile circuit names or NaN/Inf timings.
    std::fprintf(out, "    {\"name\": \"%s\", \"cases\": %zu, \"runs\": [\n",
                 obs::json_escape(cp.name).c_str(), cp.num_cases);
    for (std::size_t i = 0; i < cp.runs.size(); ++i) {
      const Run& r = cp.runs[i];
      std::fprintf(out,
                   "      {\"threads\": %d, \"t_synth\": %s, "
                   "\"t_extract\": %s, \"t_solve\": %s, \"t_ced\": %s, "
                   "\"t_total\": %s, \"q\": [",
                   r.threads, obs::json_number(r.t_synth).c_str(),
                   obs::json_number(r.t_extract).c_str(),
                   obs::json_number(r.t_solve).c_str(),
                   obs::json_number(r.t_ced).c_str(),
                   obs::json_number(r.t_total).c_str());
      for (std::size_t k = 0; k < r.qs.size(); ++k) {
        std::fprintf(out, "%s%d", k ? ", " : "", r.qs[k]);
      }
      std::fprintf(out, "], \"degraded\": %s}%s\n",
                   r.degraded ? "true" : "false",
                   i + 1 < cp.runs.size() ? "," : "");
    }
    std::fprintf(out, "    ],\n");
    std::fprintf(out, "     \"solver_p2\": {\"cases\": %zu, \"runs\": [\n",
                 cp.p2_cases);
    for (std::size_t i = 0; i < cp.p2_runs.size(); ++i) {
      const SolveRun& r = cp.p2_runs[i];
      std::fprintf(out,
                   "      {\"condense\": %s, "
                   "\"t_solve\": %s, \"q\": %zu, \"condensed_cases\": %zu, "
                   "\"degraded\": %s}%s\n",
                   r.condense ? "true" : "false",
                   obs::json_number(r.t_solve).c_str(), r.parities.size(),
                   r.condensed_cases, r.degraded ? "true" : "false",
                   i + 1 < cp.p2_runs.size() ? "," : "");
    }
    std::fprintf(out, "    ], \"kernel\": {\"build_s\": %s, \"rows\": [",
                 obs::json_number(cp.kernel.build_s).c_str());
    for (std::size_t i = 0; i < cp.kernel.rows.size(); ++i) {
      const KernelRow& kr = cp.kernel.rows[i];
      std::fprintf(out, "%s{\"mode\": \"%s\", \"mcps\": %s}",
                   i ? ", " : "", obs::json_escape(kr.mode).c_str(),
                   obs::json_number(kr.mcps).c_str());
    }
    std::fprintf(out, "]}},\n");
    std::fprintf(out, "     \"solver_lp_p%d\": {\"cases\": %zu, \"runs\": [\n",
                 kLpLatency, cp.lp_cases);
    for (std::size_t i = 0; i < cp.lp_runs.size(); ++i) {
      const LpRun& r = cp.lp_runs[i];
      std::fprintf(out,
                   "      {\"threads\": %d, \"t_solve\": %s, "
                   "\"q\": %zu, \"covers_all\": %s, \"lp_solves\": %d, "
                   "\"lp_iterations\": %d, \"lp_phase1_iterations\": %d, "
                   "\"lp_refactorizations\": %d, \"lp_warm_attempts\": %d, "
                   "\"lp_warm_hits\": %d, \"warm_hit_rate\": %s, "
                   "\"qs_tried\": [",
                   r.threads,
                   obs::json_number(r.t_solve).c_str(), r.q,
                   r.covers ? "true" : "false", r.lp_solves, r.lp_iterations,
                   r.lp_phase1_iterations, r.lp_refactorizations,
                   r.lp_warm_attempts, r.lp_warm_hits,
                   obs::json_number(warm_hit_rate(r)).c_str());
      for (std::size_t k = 0; k < r.qs_tried.size(); ++k) {
        std::fprintf(out, "%s%d", k ? ", " : "", r.qs_tried[k]);
      }
      std::fprintf(out, "], \"degraded\": %s}%s\n",
                   r.degraded ? "true" : "false",
                   i + 1 < cp.lp_runs.size() ? "," : "");
    }
    std::fprintf(out, "    ]}}%s\n", c + 1 < perf.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return failed ? 1 : 0;
}
