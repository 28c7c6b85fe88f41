// The protect_cold and protect_warm workloads: the Table-1 circuits, each
// run through ced::run_latency_sweep at p = 1..3, without a store (cold) or
// from a store that set-up filled (warm).

#include <filesystem>

#include "bench.hpp"
#include "stats.hpp"
#include "storage/store.hpp"

namespace perfbench {

using namespace ced;

namespace {

constexpr int kLatencies[] = {1, 2, 3};

std::span<const int> sweep_latencies(const Config& cfg) {
  return cfg.smoke ? std::span<const int>(kLatencies, 2)
                   : std::span<const int>(kLatencies);
}

std::vector<Scheme> schemes_of(const std::vector<core::PipelineReport>& reps) {
  std::vector<Scheme> out;
  for (const core::PipelineReport& r : reps) {
    out.push_back({r.latency, r.parities, r.algo_stats.condensed_cases});
  }
  return out;
}

bool same_parities(const std::vector<Scheme>& a, const std::vector<Scheme>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].latency != b[i].latency || a[i].parities != b[i].parities) {
      return false;
    }
  }
  return true;
}

/// Empty when every report is a full-quality result.
std::string report_error(const std::vector<core::PipelineReport>& reps) {
  for (const core::PipelineReport& r : reps) {
    if (!r.resilience.status.ok() || r.resilience.degraded()) {
      return "p=" + std::to_string(r.latency) + " " +
             r.resilience.status.to_text();
    }
  }
  return reps.empty() ? "no reports" : "";
}

struct Sweeps {
  std::vector<OpSample> ops;  ///< every timed sweep
  std::vector<std::vector<Scheme>> schemes;  ///< last pass, per machine
  std::vector<std::size_t> last_op;          ///< last pass's op, per machine
};

/// Sweeps every machine, pass after pass (run_passes), and records the
/// pinned results of its reports: q, case count and a parity-mask digest
/// per latency. Pins are per workload: the store path extracts with a fixed
/// shard partition, and its case lists differ from the no-store path's
/// although q and the masks agree. Each sweep must match `reference` when
/// given, and every pass must reproduce the previous one.
Sweeps timed_sweeps(const Config& cfg, const std::vector<Machine>& machines,
                    const RunConfig& rc,
                    const std::vector<std::vector<Scheme>>& reference,
                    Outcome& out) {
  const std::span<const int> ps = sweep_latencies(cfg);
  Sweeps sw;
  sw.schemes.resize(machines.size());
  sw.last_op.resize(machines.size());
  // Four passes at least: with two, both samples of a sweep's time or peak
  // resident set were sometimes high (s1488 peaked at 63-67 MiB in 2 of 10
  // runs, 41.6 in the others), and with three the fastest s1488 sweep still
  // spread by 0.15 over ten runs.
  run_passes(cfg, 4, [&](std::size_t) {
    for (std::size_t i = 0; i < machines.size(); ++i) {
      const Machine& m = machines[i];
      const std::size_t id = out.op();
      std::vector<core::PipelineReport> reps;
      timed_op(sw.ops, m.name,
               [&] { reps = ced::run_latency_sweep(m.fsm, ps, rc); });
      if (const std::string err = report_error(reps); !err.empty()) {
        out.fail(id, m.name + ": " + err);
      }
      std::vector<Scheme> schemes = schemes_of(reps);
      if (!reference.empty() && !same_parities(schemes, reference[i])) {
        out.fail(id, m.name + ": schemes differ from the cold run's");
      }
      if (!sw.schemes[i].empty() && !same_parities(schemes, sw.schemes[i])) {
        out.fail(id, m.name + ": schemes differ between passes");
      }
      for (const core::PipelineReport& r : reps) {
        out.observed_pins[cfg.workload + "/" + m.name + "/p" +
                          std::to_string(r.latency)] =
            "q=" + std::to_string(r.parities.size()) +
            " cases=" + std::to_string(r.num_cases) +
            " masks=" + mask_digest(r.parities);
      }
      sw.schemes[i] = std::move(schemes);
      sw.last_op[i] = id;
    }
  });
  return sw;
}

/// Output checks on one layered sweep: the layered schemes equal the
/// library's, and each covers its full table under the scalar check.
void check_sweep(Outcome& out, const std::string& name,
                 const LayeredSweep& sweep, const std::vector<Scheme>& library,
                 std::size_t op) {
  if (!sweep.error.empty()) {
    out.fail(op, name + ": " + sweep.error);
    return;
  }
  if (!same_parities(sweep.schemes, library)) {
    out.fail(op, name + ": layered schemes differ from run_latency_sweep's");
  }
  for (const Scheme& s : sweep.schemes) {
    const core::DetectabilityTable& table =
        sweep.tables[static_cast<std::size_t>(s.latency - 1)];
    if (!scalar_covers_all(s.parities, table)) {
      out.fail(op, name + " p=" + std::to_string(s.latency) +
                       ": a case escapes the scheme");
    }
  }
}

/// The untraced layered pass and its checks against the timed passes.
void check_pass(const Config& cfg, const std::vector<Machine>& machines,
                const RunConfig& rc, core::ExtractArchive* archive,
                const Sweeps& sw, Outcome& out) {
  for (std::size_t i = 0; i < machines.size(); ++i) {
    const LayeredSweep sweep =
        layered_sweep(machines[i].fsm, sweep_latencies(cfg), rc, archive,
                      nullptr, i + 1, nullptr);
    check_sweep(out, machines[i].name, sweep, sw.schemes[i], sw.last_op[i]);
  }
}

/// The traced pass: each circuit's layered sweep runs traced, then untraced
/// once more, back to back, and the tracing overhead compares those two.
/// The traced sweep's tables serve the output checks.
void traced_pass(const Config& cfg, const std::vector<Machine>& machines,
                 const RunConfig& rc, storage::ArtifactStore* store,
                 core::ExtractArchive* archive, const Sweeps& sw,
                 Outcome& out) {
  obs::Tracer log(kSpanCapacity);
  LayerCounts counts;
  double untraced_s = 0, traced_s = 0;
  for (std::size_t i = 0; i < machines.size(); ++i) {
    const std::string& name = machines[i].name;
    auto t0 = std::chrono::steady_clock::now();
    const LayeredSweep traced = layered_sweep(
        machines[i].fsm, sweep_latencies(cfg), rc, archive, &log, i + 1,
        &counts);
    traced_s += seconds_since(t0);
    t0 = std::chrono::steady_clock::now();
    const LayeredSweep again = layered_sweep(
        machines[i].fsm, sweep_latencies(cfg), rc, archive, nullptr, i + 1,
        nullptr);
    untraced_s += seconds_since(t0);
    check_sweep(out, name, traced, sw.schemes[i], sw.last_op[i]);
    if (!same_parities(again.schemes, sw.schemes[i])) {
      out.fail(sw.last_op[i],
               name + ": layered schemes differ from run_latency_sweep's");
    }
    if (store != nullptr) {
      counts.store_bytes += stored_table_bytes(*store, traced.key);
    }
    if (!condense_probe(traced, log, counts)) {
      out.problem(name + ": condense_table disagrees with the solver's "
                  "condensed_cases");
    }
  }
  sim_probe(cfg, log, counts);
  std::map<std::string, Metric> layers = layer_metrics(counts, log);
  merge_missing_layers(layers, probe_missing_layers(cfg, counts.layers, out));
  report_traced(cfg, out, log, std::move(layers), untraced_s, traced_s);
}

/// Timed passes and the pins, then either the traced pass or the
/// end-to-end metrics. An untraced protect_warm run also makes the layered
/// check pass; an untraced protect_cold run does not, since its layered
/// pass would repeat the whole 10-13 s extraction: its schemes are pinned,
/// and protect_warm's pinned q and masks, which that pass checks against
/// the stored tables every run, are the same.
void measure(const Config& cfg, const std::vector<Machine>& machines,
             const RunConfig& rc, storage::ArtifactStore* store,
             core::ExtractArchive* archive,
             const std::vector<std::vector<Scheme>>& reference, double setup_s,
             Outcome& out) {
  const Sweeps sw = timed_sweeps(cfg, machines, rc, reference, out);
  check_pins(cfg, out);
  if (cfg.trace) {
    traced_pass(cfg, machines, rc, store, archive, sw, out);
    return;
  }
  if (archive != nullptr) check_pass(cfg, machines, rc, archive, sw, out);
  report_end_to_end(cfg, out, setup_s, sw.ops);
}

}  // namespace

Outcome run_protect_cold(const Config& cfg) {
  Outcome out;
  const Result<RunConfig> rc = RunConfig::Builder().threads(kThreads).build();
  // Set-up, fifteen times: generate and synthesize every machine. One set-up
  // takes about 0.1 s, and the median of five still moved by 30% between
  // runs.
  std::vector<Machine> machines;
  std::vector<double> setups;
  for (int r = 0; r < 15; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    machines = table1_machines(cfg);
    for (const Machine& m : machines) {
      fsm::synthesize_fsm(m.fsm, rc->options().encoding, rc->options().synth);
    }
    setups.push_back(seconds_since(t0));
  }
  measure(cfg, machines, *rc, nullptr, nullptr, {}, median(setups), out);
  return out;
}

Outcome run_protect_warm(const Config& cfg) {
  Outcome out;
  std::filesystem::create_directories(cfg.work_dir);
  storage::ArtifactStore store(cfg.work_dir + "/store");
  storage::StoreArchive archive(store);
  const Result<RunConfig> rc =
      RunConfig::Builder().threads(kThreads).archive(&archive).build();
  // Set-up: cold sweeps that fill the store; their schemes are the
  // reference every warm sweep must reproduce byte for byte.
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<Machine> machines = table1_machines(cfg);
  std::vector<std::vector<Scheme>> reference;
  for (const Machine& m : machines) {
    const auto reps = ced::run_latency_sweep(m.fsm, sweep_latencies(cfg), *rc);
    if (const std::string err = report_error(reps); !err.empty()) {
      out.problem("set-up " + m.name + ": " + err);
    }
    reference.push_back(schemes_of(reps));
  }
  const double setup_s = seconds_since(t0);
  measure(cfg, machines, *rc, &store, &archive, reference, setup_s, out);
  return out;
}

}  // namespace perfbench
