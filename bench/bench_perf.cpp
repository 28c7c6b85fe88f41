// Perf-trajectory harness: for every circuit and every rung of a thread
// ladder, one traced latency sweep p = 1..P (ced::run_latency_sweep, the
// flow behind Table 1) whose stage numbers are the library's own spans,
// plus a cover-kernel throughput microbench, emitted both as a human table
// and as machine-readable JSON (BENCH_perf.json) so the repo has a perf
// history to track across changes.
//
//   bench_perf [--quick|--circuits=a,b,c] [--threads=N] [--latency=P]
//              [--out=path.json] [--kernel-smoke]
//
// --threads caps the ladder (default: CED_THREADS env or hardware
// concurrency); the ladder is 1, 2, 4, ... up to that cap, cap included.
// A cap above the host's hardware threads is refused (exit 2): a ladder
// rung with more threads than cores measures time slicing, not scaling.
//
// Each sweep runs under its own obs::Tracer, and the JSON keeps what that
// run recorded: per span name the count and the summed duration (summed,
// not wall time: extract-shard spans overlap above 1 thread), q and the
// degraded flag, and each link's LP counts (PipelineReport::algo_stats).
// The harness exits 1 on a degraded run, on q differing between rungs, on
// a dropped span, or when the synth, extract, summed solve or summed
// ced-synth span time differs from the reports' stage laps by more than
// 1e-6 s; 0 otherwise.
//
// The JSON records the host facts a comparison needs: hardware threads,
// the dispatched SIMD level, the CMake build type and the compiler.
//
// Every circuit also gets a kernel-throughput microbench on its p=2 table
// (case-evaluations/s, the harness's only timer) with one row per
// evaluation path: the per-case core::covers reference loop, the
// runtime-dispatched vector engine asked one beta at a time, and the same
// engine given the whole beta set in one cache-blocked pass.
//
// --kernel-smoke runs only the backend identity gate (small suite by
// default, no ladder, no JSON): at p=2, the parities selected on the SIMD
// backend this host dispatches to and under ScopedSimdLevel(kNone) (the
// plain word loop) must be byte-identical, at threads 1 AND 4 (use
// --circuits=s1488 for the CI pin on the paper's largest instance).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "common/cpu.hpp"
#include "common/parallel.hpp"
#include "core/coverkernel.hpp"
#include "core/parity.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace {

/// Room for every span of a sweep, so a full-suite run drops none.
constexpr std::size_t kSpanCapacity = 1 << 16;

/// How far a stage's span time may stray from the reports' laps. Both are
/// read off the same StageClock boundary samples, so only float rounding
/// separates them.
constexpr double kLapTolerance = 1e-6;

std::vector<int> thread_ladder(int max_threads) {
  std::vector<int> ladder;
  for (int t = 1; t < max_threads; t *= 2) ladder.push_back(t);
  ladder.push_back(max_threads);
  return ladder;
}

/// The spans of one name in one traced sweep.
struct SpanTotal {
  std::size_t count = 0;
  double sum_s = 0;  ///< summed durations: overlapping spans add up
};

/// Link p of a sweep's solve chain: its table size, q and solver counters.
struct Link {
  int latency = 0;
  std::size_t cases = 0;
  int q = 0;
  ced::core::Algorithm1Stats stats;
};

/// One traced sweep p = 1..P at one thread count.
struct Run {
  int threads = 0;
  std::map<std::string, SpanTotal> spans;
  std::vector<Link> links;
  bool degraded = false;

  double span_s(const char* name) const {
    const auto it = spans.find(name);
    return it != spans.end() ? it->second.sum_s : 0.0;
  }
  std::vector<int> qs() const {
    std::vector<int> out;
    for (const Link& l : links) out.push_back(l.q);
    return out;
  }
};

/// One kernel-throughput microbench row (million case-evals per second):
///   covers     — per-case core::covers reference loop (core/parity.hpp)
///   simd       — runtime-dispatched vector engine, one beta per query
///   simd-batch — CoverKernel::counts on the whole beta set in one
///                blocked pass
struct KernelRow {
  std::string mode;
  double mcps = 0;
};

/// Kernel-throughput microbench numbers.
struct KernelBench {
  std::size_t cases = 0;
  double build_s = 0;
  std::vector<KernelRow> rows;
  double mcps(const char* mode) const {
    for (const KernelRow& r : rows) {
      if (r.mode == mode) return r.mcps;
    }
    return 0;
  }
};

struct CircuitPerf {
  std::string name;
  std::size_t num_cases = 0;
  std::vector<Run> runs;
  KernelBench kernel;
};

/// Runs the sweep p = 1..P on `name` at `run.threads` under its own tracer
/// and keeps what it recorded in `run`. Returns false (saying why on
/// stderr) when the tracer dropped a span or a stage's span time strays
/// from the reports' laps.
bool traced_sweep(const std::string& name, const std::vector<int>& ps,
                  Run& run) {
  using namespace ced;
  obs::Tracer tracer(kSpanCapacity);
  core::PipelineOptions opts;
  opts.exec.threads = run.threads;
  opts.obs.tracer = &tracer;
  const auto reps = bench::sweep_circuit(name, ps, opts);
  for (const obs::SpanRecord& s : tracer.snapshot()) {
    SpanTotal& total = run.spans[s.name];
    ++total.count;
    total.sum_s += s.dur_s;
  }
  double t_solve = 0, t_ced = 0;
  for (const core::PipelineReport& r : reps) {
    run.links.push_back({r.latency, r.num_cases, r.num_trees, r.algo_stats});
    run.degraded = run.degraded || r.resilience.degraded();
    t_solve += r.t_solve;
    t_ced += r.t_ced;
  }

  bool ok = true;
  if (tracer.dropped() > 0) {
    std::fprintf(stderr, "[bench_perf] %s threads=%d: the tracer dropped "
                 "%llu spans\n", name.c_str(), run.threads,
                 static_cast<unsigned long long>(tracer.dropped()));
    ok = false;
  }
  const struct {
    const char* span;
    double laps;
  } stages[] = {{"synth", reps.back().t_synth},
                {"extract", reps.back().t_extract},
                {"solve", t_solve},
                {"ced-synth", t_ced}};
  for (const auto& stage : stages) {
    if (std::abs(run.span_s(stage.span) - stage.laps) > kLapTolerance) {
      std::fprintf(stderr, "[bench_perf] %s threads=%d: %s spans sum to "
                   "%.9fs but the reports' laps to %.9fs\n", name.c_str(),
                   run.threads, stage.span, run.span_s(stage.span),
                   stage.laps);
      ok = false;
    }
  }
  return ok;
}

/// Extracts the detectability table of the circuit the default pipeline
/// configuration derives, at latency `p`, serially.
ced::core::DetectabilityTable build_table(const std::string& name, int p) {
  using namespace ced;
  const core::Design design =
      core::derive_design(benchdata::suite_fsm(name), {});
  core::ExtractOptions ex;
  ex.latency = p;
  ex.threads = 1;
  return core::extract_cases(design.circuit, design.faults, ex);
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
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
  } while (elapsed < 0.05);
  return elapsed / static_cast<double>(reps);
}

KernelBench bench_kernel(const ced::core::DetectabilityTable& table) {
  using namespace ced;
  KernelBench kb;
  kb.cases = table.cases.size();
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
      std::size_t c = 0;
      kernel->counts({&beta, 1}, {&c, 1});
      acc += c;
    }
    sink = acc;
  });
  kb.rows.push_back({"simd", mcps(t_simd)});

  std::vector<std::size_t> counts(betas.size());
  const double t_batch = time_per_call([&] {
    kernel->counts(betas, counts);
    sink = counts.back();
  });
  kb.rows.push_back({"simd-batch", mcps(t_batch)});
  (void)sink;
  return kb;
}

/// The --kernel-smoke gate for one circuit: byte-identical parities on the
/// dispatched SIMD backend and the forced word-loop fallback, at threads 1
/// AND 4 (condensed table, p=2). Returns false on any divergence or
/// degraded solve.
bool run_kernel_smoke(const std::string& name) {
  using namespace ced;
  core::DetectabilityTable table;
  try {
    table = build_table(name, 2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[bench_perf] %s: p=2 table build failed: %s\n",
                 name.c_str(), e.what());
    return false;
  }
  bool ok = true;
  std::vector<core::ParityFunc> ref;
  for (const SimdLevel level : {simd_level(), SimdLevel::kNone}) {
    const ScopedSimdLevel cap(level);
    for (const int threads : {1, 4}) {
      core::PipelineOptions opts;
      opts.exec.threads = threads;
      core::ResilienceReport resilience;
      const auto parities = core::select_parities_resilient(
          table, opts, core::Deadline{}, nullptr, {}, resilience);
      if (resilience.degraded()) ok = false;
      if (ref.empty()) ref = parities;
      if (parities != ref) {
        std::fprintf(stderr,
                     "[bench_perf] %s: simd=%s threads=%d selected q=%zu "
                     "with different parities than the reference (q=%zu) "
                     "— kernel backend divergence\n",
                     name.c_str(), to_string(level), threads,
                     parities.size(), ref.size());
        ok = false;
      }
    }
  }
  std::printf("[kernel-smoke] %-8s q=%zu (%zu cases) %s\n", name.c_str(),
              ref.size(), table.cases.size(), ok ? "ok" : "MISMATCH");
  std::fflush(stdout);
  return ok;
}

void write_json(std::FILE* out, int p_max, int hardware_threads,
                const std::vector<CircuitPerf>& perf) {
  using namespace ced;
  std::fprintf(out, "{\n  \"schema\": \"ced-bench-perf-v7\",\n");
  std::fprintf(out, "  \"latency_max\": %d,\n", p_max);
  std::fprintf(out, "  \"hardware_threads\": %d,\n", hardware_threads);
  std::fprintf(out, "  \"simd\": \"%s\",\n", to_string(simd_level()));
  std::fprintf(out, "  \"build_type\": \"%s\",\n",
               obs::json_escape(CED_BUILD_TYPE).c_str());
  std::fprintf(out, "  \"compiler\": \"%s\",\n",
               obs::json_escape(CED_COMPILER).c_str());
  std::fprintf(out, "  \"circuits\": [\n");
  for (std::size_t c = 0; c < perf.size(); ++c) {
    const CircuitPerf& cp = perf[c];
    // Names pass through json_escape and timings through json_number so the
    // file parses even with hostile circuit names or NaN/Inf timings.
    std::fprintf(out, "    {\"name\": \"%s\", \"cases\": %zu, \"runs\": [\n",
                 obs::json_escape(cp.name).c_str(), cp.num_cases);
    for (std::size_t i = 0; i < cp.runs.size(); ++i) {
      const Run& r = cp.runs[i];
      std::fprintf(out, "      {\"threads\": %d, \"q\": [", r.threads);
      const std::vector<int> qs = r.qs();
      for (std::size_t k = 0; k < qs.size(); ++k) {
        std::fprintf(out, "%s%d", k ? ", " : "", qs[k]);
      }
      std::fprintf(out, "], \"degraded\": %s,\n       \"spans\": {",
                   r.degraded ? "true" : "false");
      const char* sep = "";
      for (const auto& [name, total] : r.spans) {
        std::fprintf(out, "%s\"%s\": {\"count\": %zu, \"sum_s\": %s}", sep,
                     obs::json_escape(name).c_str(), total.count,
                     obs::json_number(total.sum_s).c_str());
        sep = ", ";
      }
      std::fprintf(out, "},\n       \"links\": [\n");
      for (std::size_t k = 0; k < r.links.size(); ++k) {
        const Link& l = r.links[k];
        const core::Algorithm1Stats& s = l.stats;
        std::fprintf(out,
                     "        {\"latency\": %d, \"cases\": %zu, "
                     "\"condensed_cases\": %zu, \"lp_solves\": %d, "
                     "\"lp_iterations\": %d, \"lp_phase1_iterations\": %d, "
                     "\"lp_refactorizations\": %d, \"lp_warm_attempts\": %d, "
                     "\"lp_warm_hits\": %d, \"qs_tried\": [",
                     l.latency, l.cases, s.condensed_cases, s.lp_solves,
                     s.lp_iterations, s.lp_phase1_iterations,
                     s.lp_refactorizations, s.lp_warm_attempts,
                     s.lp_warm_hits);
        for (std::size_t j = 0; j < s.qs_tried.size(); ++j) {
          std::fprintf(out, "%s%d", j ? ", " : "", s.qs_tried[j]);
        }
        std::fprintf(out, "]}%s\n", k + 1 < r.links.size() ? "," : "");
      }
      std::fprintf(out, "      ]}%s\n", i + 1 < cp.runs.size() ? "," : "");
    }
    std::fprintf(out,
                 "    ],\n     \"kernel\": {\"cases\": %zu, \"build_s\": %s, "
                 "\"rows\": [",
                 cp.kernel.cases, obs::json_number(cp.kernel.build_s).c_str());
    for (std::size_t i = 0; i < cp.kernel.rows.size(); ++i) {
      const KernelRow& kr = cp.kernel.rows[i];
      std::fprintf(out, "%s{\"mode\": \"%s\", \"mcps\": %s}", i ? ", " : "",
                   obs::json_escape(kr.mode).c_str(),
                   obs::json_number(kr.mcps).c_str());
    }
    std::fprintf(out, "]}}%s\n", c + 1 < perf.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

constexpr std::string_view kFlags[] = {"--kernel-smoke", "--threads=",
                                       "--latency=", "--out="};

int run(int argc, char** argv) {
  using namespace ced;
  cli::reject_unknown_flags(argc, argv, "bench_perf",
                            {kFlags, bench::kSuiteFlags});
  const bool kernel_smoke = cli::has_flag(argc, argv, "--kernel-smoke");
  // 0 or a negative count means "auto" (resolve_threads).
  const int threads =
      std::max(cli::numeric_flag(argc, argv, "--threads", 0), 0);
  const int p_max =
      std::max(cli::numeric_flag(argc, argv, "--latency", 3), 1);
  const std::string out_path =
      cli::arg_value(argc, argv, "--out", "BENCH_perf.json");
  const auto circuits =
      kernel_smoke && !cli::has_flag(argc, argv, "--quick") &&
              cli::arg_value(argc, argv, "--circuits").empty()
          ? benchdata::small_suite_names()
          : bench::circuits_from_args(argc, argv);

  if (kernel_smoke) {
    // CI gate: byte-identical parities on the dispatched SIMD backend and
    // the plain word loop at p=2, threads 1 and 4.
    std::printf("[kernel-smoke] simd dispatch: %s\n",
                to_string(simd_level()));
    bool ok = true;
    for (const auto& name : circuits) {
      ok = run_kernel_smoke(name) && ok;
    }
    std::printf(
        "[kernel-smoke] %s vs none backend equivalence at threads 1+4: "
        "%s\n",
        to_string(simd_level()), ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  }

  const int max_threads = resolve_threads(threads);
  const int hardware_threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  if (max_threads > hardware_threads) {
    std::fprintf(stderr,
                 "[bench_perf] a ladder up to %d threads exceeds this host's "
                 "%d hardware threads; pass --threads=%d or fewer\n",
                 max_threads, hardware_threads, hardware_threads);
    return 2;
  }
  std::vector<int> ps;
  for (int p = 1; p <= p_max; ++p) ps.push_back(p);
  const auto ladder = thread_ladder(max_threads);

  std::printf("Pipeline spans vs worker threads (latency sweep 1..%d)\n",
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
      Run run;
      run.threads = threads;
      if (!traced_sweep(name, ps, run)) failed = true;
      std::string qs_text;
      for (const int q : run.qs()) {
        qs_text += (qs_text.empty() ? "" : ",") + std::to_string(q);
      }
      std::printf("%-8s | %7d | %9.3f %9.3f %9.3f %9.3f | %s%s\n",
                  name.c_str(), threads, run.span_s("extract"),
                  run.span_s("solve"), run.span_s("ced-synth"),
                  run.span_s("pipeline"), qs_text.c_str(),
                  run.degraded ? " *" : "");
      std::fflush(stdout);
      if (run.degraded) failed = true;
      if (!cp.runs.empty() && cp.runs.front().qs() != run.qs()) {
        std::fprintf(stderr,
                     "[bench_perf] %s: q differs between threads=%d and "
                     "threads=%d — determinism violation\n",
                     name.c_str(), cp.runs.front().threads, threads);
        failed = true;
      }
      cp.runs.push_back(std::move(run));
    }
    cp.num_cases = cp.runs.front().links.back().cases;
    for (const Link& l : cp.runs.back().links) {
      const core::Algorithm1Stats& s = l.stats;
      std::printf("%-8s | p=%d lp: %d solves, %d pivots (ph1 %d), %d refac, "
                  "warm %d/%d\n",
                  name.c_str(), l.latency, s.lp_solves, s.lp_iterations,
                  s.lp_phase1_iterations, s.lp_refactorizations,
                  s.lp_warm_hits, s.lp_warm_attempts);
    }
    try {
      cp.kernel = bench_kernel(build_table(name, 2));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[bench_perf] %s: p=2 table build failed: %s\n",
                   name.c_str(), e.what());  // the sweep rows are degraded
    }
    if (!cp.kernel.rows.empty()) {
      std::printf("%-8s | kernel: build %.4fs", name.c_str(),
                  cp.kernel.build_s);
      for (const KernelRow& kr : cp.kernel.rows) {
        std::printf(", %s %.1f Mcase/s", kr.mode.c_str(), kr.mcps);
      }
      std::printf("\n");
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
    const double before = serial.span_s("extract") + serial.span_s("solve");
    const double after = wide.span_s("extract") + wide.span_s("solve");
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
  write_json(out, p_max, hardware_threads, perf);
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ced::cli::run_main(run, argc, argv);
}
