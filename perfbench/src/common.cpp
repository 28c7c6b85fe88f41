#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "benchdata/suite.hpp"
#include "common/exec.hpp"
#include "core/coverkernel.hpp"
#include "core/pipeline.hpp"
#include "obs/export.hpp"
#include "sim/campaign.hpp"
#include "sim/fault_sim.hpp"
#include "stats.hpp"
#include "storage/store.hpp"

namespace perfbench {

using namespace ced;

// --------------------------------------------------------------- outcome

void Outcome::fail(std::size_t i, const std::string& why) {
  if (i < op_failed_.size() && !op_failed_[i]) {
    op_failed_[i] = true;
    problems.push_back(why);
  }
}

void Outcome::problem(const std::string& why) { problems.push_back(why); }

std::uint64_t Outcome::failed() const {
  return static_cast<std::uint64_t>(
      std::count(op_failed_.begin(), op_failed_.end(), true));
}

// ---------------------------------------------------------------- layers

namespace {

double per_second(double count, double seconds) {
  return seconds > 0 ? count / seconds : 0.0;
}

/// Per span name: the summed duration minus the part of each span's
/// interval its direct children cover.
std::map<std::string, double> self_seconds(const obs::Tracer& log) {
  const std::vector<obs::SpanRecord> spans = log.snapshot();
  std::unordered_map<std::uint64_t, double> covered;
  for (const obs::SpanRecord& s : spans) {
    if (s.parent != 0) covered[s.parent] += s.dur_s;
  }
  std::map<std::string, double> self;
  for (const obs::SpanRecord& s : spans) {
    const auto it = covered.find(s.id);
    self[s.name] += s.dur_s - (it != covered.end() ? it->second : 0.0);
  }
  return self;
}

}  // namespace

obs::ScopedSpan layer_span(obs::Tracer* tracer, const char* name,
                           std::uint64_t parent, std::uint64_t op) {
  obs::ScopedSpan span(tracer, name, parent);
  span.attr("op", op);
  return span;
}

std::map<std::string, Metric> layer_metrics(const LayerCounts& c,
                                            const obs::Tracer& log) {
  const std::map<std::string, double> self = self_seconds(log);
  const auto t = [&](const char* span) {
    const auto it = self.find(span);
    return it != self.end() ? it->second : 0.0;
  };
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  std::map<std::string, Metric> m;
  const auto has = [&](const char* layer) { return c.layers.count(layer) > 0; };
  if (has("fsm")) {
    m["fsm.synth_s"] = {t("fsm"), "s"};
    m["fsm.gates"] = {n(c.fsm_gates), "count"};
  }
  if (has("sim")) {
    m["sim.rows"] = {n(c.sim_rows), "count"};
    m["sim.rows_s"] = {t("sim.rows"), "s"};
    m["sim.rows_per_s"] = {per_second(n(c.sim_rows), t("sim.rows")), "1/s"};
  }
  if (has("extract")) {
    m["extract.s"] = {t("extract"), "s"};
    m["extract.cases"] = {n(c.extract_cases), "count"};
    m["extract.activations"] = {n(c.extract_activations), "count"};
    m["extract.paths"] = {n(c.extract_paths), "count"};
    m["extract.loop_truncations"] = {n(c.extract_loop_truncations), "count"};
    m["extract.paths_per_s"] = {per_second(n(c.extract_paths), t("extract")),
                                "1/s"};
  }
  if (has("condense")) {
    m["condense.s"] = {t("condense"), "s"};
    m["condense.rows_in"] = {n(c.condense_rows_in), "count"};
    m["condense.rows_out"] = {n(c.condense_rows_out), "count"};
  }
  if (has("solve")) {
    m["solve.s"] = {t("solve"), "s"};
    m["solve.q"] = {n(c.solve_q), "count"};
    m["solve.lp_solves"] = {n(c.solve_lp_solves), "count"};
    m["solve.roundings"] = {n(c.solve_roundings), "count"};
    m["solve.repairs"] = {n(c.solve_repairs), "count"};
    m["solve.kernel_case_evals"] = {n(c.solve_kernel_case_evals), "count"};
    m["solve.kernel_evals_per_s"] = {
        per_second(n(c.solve_kernel_case_evals), t("solve")), "1/s"};
    m["lp.iterations"] = {n(c.lp_iterations), "count"};
    m["lp.phase1_iterations"] = {n(c.lp_phase1_iterations), "count"};
    m["lp.refactorizations"] = {n(c.lp_refactorizations), "count"};
    m["lp.warm_hit_ratio"] = {Ratio{c.lp_warm_hits, c.lp_warm_attempts}.value(),
                              "ratio"};
    m["lp.warm_attempts"] = {n(c.lp_warm_attempts), "count"};
  }
  if (has("ced")) {
    m["ced.s"] = {t("ced"), "s"};
    m["ced.gates"] = {n(c.ced_gates), "count"};
  }
  if (has("store")) {
    m["store.load_s"] = {t("store.load"), "s"};
    m["store.loads"] = {n(c.store_loads), "count"};
    m["store.bytes"] = {n(c.store_bytes), "bytes"};
  }
  if (has("campaign")) {
    m["campaign.s"] = {t("campaign"), "s"};
    m["campaign.units"] = {n(c.campaign_units), "count"};
    m["campaign.activations"] = {n(c.campaign_activations), "count"};
    m["campaign.activations_per_s"] = {
        per_second(n(c.campaign_activations), t("campaign")), "1/s"};
    m["campaign.max_latency"] = {static_cast<double>(c.campaign_max_latency),
                                 "cycles"};
  }
  if (has("serve")) {
    m["serve.overhead_p50_ms"] = {percentile(c.serve_overhead_ms, 0.50), "ms"};
    m["serve.overhead_p99_ms"] = {percentile(c.serve_overhead_ms, 0.99), "ms"};
    m["serve.extract_s"] = {c.serve_extract_s, "s"};
    m["serve.solve_s"] = {c.serve_solve_s, "s"};
    m["serve.warm_hits"] = {n(c.serve_warm_hits), "count"};
    m["serve.cold_misses"] = {n(c.serve_cold_misses), "count"};
    m["serve.dedup_joins"] = {n(c.serve_dedup_joins), "count"};
    m["serve.overload_rejections"] = {n(c.serve_overload_rejections), "count"};
    m["serve.client_retries"] = {n(c.serve_client_retries), "count"};
  }
  return m;
}

namespace {

std::string layer_of(const std::string& metric) {
  return metric.substr(0, metric.find('.'));
}

}  // namespace

void merge_missing_layers(std::map<std::string, Metric>& out,
                          const std::map<std::string, Metric>& extra) {
  std::set<std::string> have;
  for (const auto& [name, _] : out) have.insert(layer_of(name));
  for (const auto& [name, metric] : extra) {
    if (have.count(layer_of(name)) == 0) out[name] = metric;
  }
}

// -------------------------------------------------------------- machines

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::vector<Machine> named_machines(const Config& cfg,
                                    std::vector<std::string> names) {
  if (cfg.seed != 0) {
    std::uint64_t s = cfg.seed;
    for (std::size_t i = names.size(); i > 1; --i) {
      s = mix(s);
      std::swap(names[i - 1], names[s % i]);
    }
  }
  std::vector<Machine> out;
  for (const std::string& name : names) {
    out.push_back({name, benchdata::suite_fsm(name)});
  }
  return out;
}

std::vector<Machine> table1_machines(const Config& cfg) {
  std::vector<std::string> names;
  if (cfg.smoke) {
    names = {"s27", "tav", "dk14"};
  } else {
    for (const auto& e : benchdata::mcnc_suite()) names.push_back(e.name);
  }
  return named_machines(cfg, std::move(names));
}

std::string headline_circuit(const Config& cfg) {
  return cfg.smoke ? "dk14" : "s1488";
}

// --------------------------------------------------------- layered sweep

LayeredSweep layered_sweep(const fsm::Fsm& f, std::span<const int> ps,
                           const RunConfig& cfg, core::ExtractArchive* archive,
                           obs::Tracer* log, std::uint64_t op,
                           LayerCounts* counts) {
  const core::PipelineOptions& opts = cfg.options();
  const ScopedExecPolicy exec_scope(opts.exec);
  const core::Deadline deadline = core::Deadline::from(opts.budget);
  LayeredSweep out;
  LayerCounts scratch;
  LayerCounts& c = counts != nullptr ? *counts : scratch;
  const obs::ScopedSpan root = layer_span(log, "op", 0, op);

  {
    const obs::ScopedSpan s = layer_span(log, "fsm", root.id(), op);
    out.circuit = fsm::synthesize_fsm(f, opts.encoding, opts.synth);
  }
  c.layers.insert("fsm");
  c.fsm_gates += out.circuit.netlist.gate_count();
  {
    const obs::ScopedSpan s = layer_span(log, "faults", root.id(), op);
    out.faults = sim::enumerate_stuck_at(out.circuit.netlist, opts.faults);
  }

  const int p_max = *std::max_element(ps.begin(), ps.end());
  core::ExtractOptions ex = opts.extract;
  ex.latency = p_max;
  ex.deadline = deadline;
  ex.threads = opts.exec.threads;
  if (archive != nullptr) {
    const obs::ScopedSpan s = layer_span(log, "store.load", root.id(), op);
    const int shards = core::resolve_checkpoint_shards(opts.checkpoint_shards,
                                                       out.faults.size());
    const std::string key =
        core::extraction_digest(out.circuit, out.faults, ex, shards);
    out.tables = archive->load_tables(key);
    c.layers.insert("store");
    ++c.store_loads;
    out.key = key;
    if (out.tables.empty()) {
      out.error = "no stored tables for key " + key;
      return out;
    }
  } else {
    const obs::ScopedSpan s = layer_span(log, "extract", root.id(), op);
    out.tables = core::extract_cases_multi(out.circuit, out.faults, ex);
    c.layers.insert("extract");
    const core::DetectabilityTable& deep = out.tables.back();
    c.extract_cases += deep.cases.size();
    c.extract_activations += deep.num_activations;
    c.extract_paths += deep.num_paths;
    c.extract_loop_truncations += deep.num_loop_truncations;
  }
  const bool any_truncated = std::any_of(
      out.tables.begin(), out.tables.end(),
      [](const core::DetectabilityTable& t) { return t.truncated; });
  if (any_truncated) out.error = "extraction truncated";

  // Same warm-start chain and lower-latency shortcut as the pipeline.
  std::vector<core::ParityFunc> warm;
  int prev_p = 0;
  for (const int p : ps) {
    const core::DetectabilityTable& table =
        out.tables[static_cast<std::size_t>(p - 1)];
    Scheme scheme;
    scheme.latency = p;
    core::Algorithm1Stats st;
    core::ResilienceReport res;
    {
      const obs::ScopedSpan s = layer_span(log, "solve", root.id(), op);
      scheme.parities = core::select_parities_resilient(table, opts, deadline,
                                                        &st, warm, res);
      const bool ascending = warm.empty() || p >= prev_p;
      if (ascending && !any_truncated && !warm.empty() &&
          warm.size() < scheme.parities.size()) {
        scheme.parities = warm;
      }
    }
    if (!res.status.ok() || res.degraded()) {
      out.error = "solver degraded at p=" + std::to_string(p) + ": " +
                  res.status.to_text();
    }
    c.layers.insert("solve");
    c.solve_q += scheme.parities.size();
    c.solve_lp_solves += static_cast<std::uint64_t>(st.lp_solves);
    c.solve_roundings += static_cast<std::uint64_t>(st.roundings);
    c.solve_repairs += static_cast<std::uint64_t>(st.repairs);
    c.solve_kernel_case_evals += st.kernel_case_evals;
    scheme.condensed_cases = st.condensed_cases;
    c.lp_iterations += static_cast<std::uint64_t>(st.lp_iterations);
    c.lp_phase1_iterations +=
        static_cast<std::uint64_t>(st.lp_phase1_iterations);
    c.lp_refactorizations += static_cast<std::uint64_t>(st.lp_refactorizations);
    c.lp_warm_attempts += static_cast<std::uint64_t>(st.lp_warm_attempts);
    c.lp_warm_hits += static_cast<std::uint64_t>(st.lp_warm_hits);
    {
      const obs::ScopedSpan s = layer_span(log, "ced", root.id(), op);
      out.hw = core::synthesize_ced(out.circuit, scheme.parities, opts.ced);
    }
    c.layers.insert("ced");
    c.ced_gates += out.hw.cost(opts.library).gates;
    warm = scheme.parities;
    prev_p = p;
    out.schemes.push_back(std::move(scheme));
  }
  return out;
}

bool condense_probe(const LayeredSweep& sweep, obs::Tracer& log,
                    LayerCounts& counts) {
  bool agrees = true;
  for (const Scheme& s : sweep.schemes) {
    const core::DetectabilityTable& table =
        sweep.tables[static_cast<std::size_t>(s.latency - 1)];
    if (table.cases.empty()) continue;
    core::CondensedTable cond;
    {
      const obs::ScopedSpan span = layer_span(&log, "condense", 0, 0);
      cond = core::condense_table(table);
    }
    counts.condense_rows_in += table.cases.size();
    counts.condense_rows_out += cond.table.cases.size();
    agrees = agrees && cond.table.cases.size() == s.condensed_cases;
  }
  counts.layers.insert("condense");
  return agrees;
}

std::uint64_t stored_table_bytes(const storage::ArtifactStore& store,
                                 const std::string& key) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(
      store.dir() / (storage::table_name(key) + ".ced"), ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

void sim_probe(const Config& cfg, obs::Tracer& log, LayerCounts& counts) {
  struct Target {
    fsm::FsmCircuit circuit;
    std::vector<sim::StuckAtFault> faults;
    std::vector<std::uint64_t> states;
  };
  std::vector<Target> targets;
  for (const char* name : cfg.smoke ? std::vector<const char*>{"dk14"}
                                    : std::vector<const char*>{"s1488",
                                                               "s298"}) {
    Target t;
    t.circuit = fsm::synthesize_fsm(benchdata::suite_fsm(name),
                                    fsm::EncodingKind::kBinary);
    t.faults = sim::enumerate_stuck_at(t.circuit.netlist);
    t.states = sim::reachable_codes(t.circuit, t.circuit.enc.reset_code);
    targets.push_back(std::move(t));
  }
  const obs::ScopedSpan span = layer_span(&log, "sim.rows", 0, 0);
  std::atomic<std::uint64_t> rows{0};
  for (const Target& t : targets) {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&] {
        std::uint64_t local = 0;
        for (std::size_t i = next++; i < t.faults.size(); i = next++) {
          const logic::Injection inj = t.faults[i].injection();
          for (const std::uint64_t s : t.states) {
            const auto row = sim::simulate_all_inputs(t.circuit, s, &inj);
            local += row.empty() ? 0 : 1;
          }
        }
        rows += local;
      });
    }
    for (std::thread& w : workers) w.join();
  }
  counts.sim_rows += rows.load();
  counts.layers.insert("sim");
}

// ----------------------------------------------------------------- checks

bool scalar_covers_all(std::span<const core::ParityFunc> parities,
                       const core::DetectabilityTable& table) {
  for (const core::ErroneousCase& ec : table.cases) {
    if (!core::covers(parities, ec)) return false;
  }
  return true;
}

std::string mask_digest(std::span<const core::ParityFunc> parities) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const core::ParityFunc p : parities) {
    for (int b = 0; b < 8; ++b) {
      h ^= (p >> (8 * b)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

namespace {

std::map<std::string, std::string> read_pins(const std::string& path,
                                             bool* found) {
  std::map<std::string, std::string> pins;
  std::ifstream in(path);
  *found = static_cast<bool>(in);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos) continue;
    pins[line.substr(0, sp)] = line.substr(sp + 1);
  }
  return pins;
}

}  // namespace

void check_pins(const Config& cfg, Outcome& out) {
  if (cfg.smoke) return;
  bool found = false;
  std::map<std::string, std::string> pins = read_pins(cfg.pins_path, &found);
  if (cfg.write_pins) {
    for (const auto& [k, v] : out.observed_pins) pins[k] = v;
    std::ofstream f(cfg.pins_path);
    f << "# Pinned results of the benchmark's workloads (see README.md).\n"
         "# Regenerate: python3 perfbench/run.py --workload W --seed 0 "
         "--write-pins\n";
    for (const auto& [k, v] : pins) f << k << ' ' << v << '\n';
    if (!f) out.problem("cannot write pins to " + cfg.pins_path);
    return;
  }
  if (!found) {
    out.problem("pin file " + cfg.pins_path + " not found");
    return;
  }
  for (const auto& [k, v] : out.observed_pins) {
    const auto it = pins.find(k);
    if (it == pins.end()) {
      out.problem("no pin for " + k);
    } else if (it->second != v) {
      out.problem("pin mismatch for " + k + ": pinned '" + it->second +
                  "', got '" + v + "'");
    }
  }
}

// -------------------------------------------------------------- reporting

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void reset_peak_rss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  // Linux: "5" resets VmHWM to the current resident set.
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // KiB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::map<std::string, double> fastest_seconds(
    const std::vector<OpSample>& ops) {
  std::map<std::string, double> fastest;
  for (const OpSample& o : ops) {
    const auto [it, fresh] = fastest.emplace(o.key, o.seconds);
    if (!fresh) it->second = std::min(it->second, o.seconds);
  }
  return fastest;
}

double least_peak_mb(const std::vector<OpSample>& ops) {
  std::map<std::string, double> least;
  for (const OpSample& o : ops) {
    const auto [it, fresh] = least.emplace(o.key, o.peak_mb);
    if (!fresh) it->second = std::min(it->second, o.peak_mb);
  }
  double peak = 0;
  for (const auto& [_, mb] : least) peak = std::max(peak, mb);
  return peak;
}

double fastest_pass_seconds(const std::vector<OpSample>& ops) {
  double sum = 0;
  for (const auto& [_, s] : fastest_seconds(ops)) sum += s;
  return sum;
}

void report_end_to_end(const Config& cfg, Outcome& out, double setup_s,
                       const std::vector<OpSample>& ops) {
  // Fastest rather than median times (README.md, "Timing"): the host's
  // speed drifts by up to 1.6x over seconds, for one thread as for four.
  out.metric("setup_s", setup_s, "s");
  out.metric("run_s", fastest_pass_seconds(ops), "s");
  out.metric("s1488_s", fastest_seconds(ops)[headline_circuit(cfg)], "s");
  out.metric("peak_rss_mb", least_peak_mb(ops), "MiB");
}

void run_passes(const Config& cfg, std::size_t min_passes,
                const std::function<void(std::size_t)>& pass) {
  const double seconds = cfg.trace ? 0 : cfg.seconds;
  if (cfg.trace) min_passes = 1;
  const auto t_run = std::chrono::steady_clock::now();
  std::size_t n = 0;
  do {
    pass(n++);
  } while (seconds_since(t_run) < seconds || n < min_passes);
}

void timed_op(std::vector<OpSample>& ops, const std::string& key,
              const std::function<void()>& fn) {
  reset_peak_rss();
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const double seconds = seconds_since(t0);
  ops.push_back({key, seconds, peak_rss_mb()});
}

void report_traced(const Config& cfg, Outcome& out, const obs::Tracer& log,
                   std::map<std::string, Metric> layers, double untraced_run_s,
                   double traced_run_s) {
  layers["trace.run_s"] = {traced_run_s, "s"};
  layers["trace.untraced_run_s"] = {untraced_run_s, "s"};
  layers["trace.overhead_s"] = {traced_run_s - untraced_run_s, "s"};
  out.metrics = layers;

  std::error_code ec;
  std::filesystem::create_directories(cfg.trace_dir, ec);
  const std::string stem = cfg.trace_dir + "/" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed);
  if (log.dropped() > 0) out.problem("the tracer dropped spans");
  std::ofstream spans(stem + ".spans.json");
  spans << obs::trace_json(log.snapshot(), log.dropped()) << '\n';
  if (!spans) out.problem("cannot write " + stem + ".spans.json");
  std::ostringstream table;
  table << "# " << cfg.workload << " seed " << cfg.seed
        << ": self seconds per span name\n";
  for (const auto& [name, s] : self_seconds(log)) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "span %-14s %12.6f s\n", name.c_str(), s);
    table << buf;
  }
  table << "# per-layer metrics\n";
  for (const auto& [name, m] : layers) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "metric %-28s %18.6f %s\n", name.c_str(),
                  m.value, m.unit.c_str());
    table << buf;
  }
  std::ofstream f(stem + ".layers.txt");
  f << table.str();
  if (!f) out.problem("cannot write " + stem + ".layers.txt");
  std::fputs(table.str().c_str(), stderr);
}

std::map<std::string, Metric> probe_missing_layers(
    const Config& cfg, const std::set<std::string>& have, Outcome& out) {
  const auto missing = [&](const char* layer) {
    return have.count(layer) == 0;
  };
  Config pc = cfg;
  pc.smoke = true;
  pc.work_dir = cfg.work_dir + "/probe";
  const fsm::Fsm probe = benchdata::suite_fsm(cfg.smoke ? "tav" : "cse");
  const int ps[] = {1, 2};
  const Result<RunConfig> rc = RunConfig::Builder().threads(kThreads).build();
  std::map<std::string, Metric> result;

  if (missing("fsm") || missing("extract") || missing("condense") ||
      missing("solve") || missing("ced")) {
    obs::Tracer log(kSpanCapacity);
    LayerCounts counts;
    const LayeredSweep sweep =
        layered_sweep(probe, ps, *rc, nullptr, &log, 1, &counts);
    if (!sweep.error.empty()) out.problem("layer probe: " + sweep.error);
    if (!condense_probe(sweep, log, counts)) {
      out.problem("layer probe: condense_table disagrees with the solver");
    }
    merge_missing_layers(result, layer_metrics(counts, log));
  }
  if (missing("store")) {
    std::filesystem::create_directories(pc.work_dir);
    storage::ArtifactStore store(pc.work_dir + "/store");
    storage::StoreArchive archive(store);
    const Result<RunConfig> ac =
        RunConfig::Builder().threads(kThreads).archive(&archive).build();
    ced::run_latency_sweep(probe, ps, *ac);
    obs::Tracer log(kSpanCapacity);
    LayerCounts counts;
    const LayeredSweep sweep =
        layered_sweep(probe, ps, *ac, &archive, &log, 1, &counts);
    if (!sweep.error.empty()) out.problem("store probe: " + sweep.error);
    counts.store_bytes += stored_table_bytes(store, sweep.key);
    counts.layers = {"store"};
    merge_missing_layers(result, layer_metrics(counts, log));
  }
  if (missing("campaign")) {
    const int p2[] = {2};
    const LayeredSweep sweep =
        layered_sweep(probe, p2, *rc, nullptr, nullptr, 0, nullptr);
    obs::Tracer log(kSpanCapacity);
    LayerCounts counts;
    sim::CampaignOptions co;
    co.latency_bound = 2;
    co.threads = kThreads;
    sim::CampaignReport rep;
    {
      const obs::ScopedSpan s = layer_span(&log, "campaign", 0, 1);
      rep = sim::run_campaign(sweep.circuit, sweep.hw, sweep.faults, co);
    }
    if (rep.truncated || !rep.bound_holds()) {
      out.problem("campaign probe: bound violated or truncated");
    }
    counts.layers = {"campaign"};
    counts.campaign_units += rep.num_units;
    counts.campaign_activations += rep.activations;
    counts.campaign_max_latency = rep.max_latency;
    merge_missing_layers(result, layer_metrics(counts, log));
  }
  if (missing("serve")) merge_missing_layers(result, serve_probe(pc, out));
  return result;
}

}  // namespace perfbench
