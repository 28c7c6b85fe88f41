#include "core/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/solver.hpp"

namespace ced::core {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

PipelineReport report_for(const Design& design,
                          const DetectabilityTable& table,
                          const PipelineOptions& opts,
                          const Deadline& deadline,
                          std::span<const ParityFunc> warm_start,
                          bool warm_is_lower_latency_cover,
                          obs::StageClock& clock, const obs::Sinks& run_obs) {
  const fsm::FsmCircuit& circuit = design.circuit;
  PipelineReport rep;
  rep.inputs = circuit.r();
  rep.state_bits = circuit.s();
  rep.outputs = circuit.o();
  const auto orig = logic::measure_area(
      circuit.netlist, opts.library,
      static_cast<std::size_t>(circuit.s()));  // state register flip-flops
  rep.orig_gates = orig.gates;
  rep.orig_area = orig.area;
  rep.num_faults = design.faults.size();
  rep.num_detectable_faults = table.num_detectable_faults;
  rep.num_cases = table.cases.size();
  rep.latency = table.latency;

  rep.resilience.extraction_truncated = table.truncated;
  rep.resilience.table_strengthened = table.strengthened;
  if (table.truncated) {
    rep.resilience.record(Stage::kExtract, StatusCode::kTruncated,
                          table.truncation_reason, 0.0, table.cases.size());
  }

  const std::uint64_t solve_span =
      clock.open(run_obs.tracer, "solve", run_obs.parent_span);
  if (run_obs.tracer != nullptr && solve_span != 0) {
    run_obs.tracer->attr(solve_span, "latency",
                         std::to_string(table.latency));
  }
  // Reparent the sinks under this report's solve span so the cascade's
  // spans (solver:exact, algorithm1, greedy, lp-solve) nest beneath it.
  PipelineOptions solve_opts;
  const PipelineOptions* effective = &opts;
  if (run_obs.enabled()) {
    solve_opts = opts;
    solve_opts.obs = run_obs.under(solve_span);
    effective = &solve_opts;
  }
  rep.parities = select_parities_resilient(table, *effective, deadline,
                                           &rep.algo_stats, warm_start,
                                           rep.resilience);
  // A cover for a smaller latency bound is always a valid cover for this
  // one (detecting earlier is allowed), even when this table was
  // conservatively strengthened and the solver could not do as well. The
  // shortcut is only sound when the warm cover's source table was complete,
  // so truncated sweeps skip it.
  if (warm_is_lower_latency_cover && !warm_start.empty() &&
      warm_start.size() < rep.parities.size()) {
    rep.parities.assign(warm_start.begin(), warm_start.end());
    rep.algo_stats.final_q = static_cast<int>(rep.parities.size());
  }
  rep.t_solve = clock.close(run_obs.tracer, solve_span);
  rep.num_trees = static_cast<int>(rep.parities.size());

  const std::uint64_t ced_span =
      clock.open(run_obs.tracer, "ced-synth", run_obs.parent_span);
  rep.hw = synthesize_ced(circuit, rep.parities, opts.ced);
  const auto cost = rep.hw.cost(opts.library);
  rep.ced_gates = cost.gates;
  rep.ced_area = cost.area;
  rep.t_ced = clock.close(run_obs.tracer, ced_span);

  if (rep.resilience.status.ok() && rep.resilience.degraded()) {
    rep.resilience.status = Status::truncated(
        Stage::kPipeline,
        "run degraded under budget; cover is valid for the cases covered");
  }
  return rep;
}

/// Builds one classified-but-empty report per requested latency; used when
/// the run cannot proceed at all (invalid input, internal failure).
std::vector<PipelineReport> classified_reports(std::span<const int> latencies,
                                               const PipelineOptions& opts,
                                               Status status) {
  std::vector<PipelineReport> reports;
  for (int p : latencies) {
    PipelineReport rep;
    rep.latency = p;
    rep.resilience.solver_requested = cascade_level_of(opts.solver);
    rep.resilience.solver_used = cascade_level_of(opts.solver);
    rep.resilience.status = status;
    reports.push_back(std::move(rep));
  }
  return reports;
}

}  // namespace

std::vector<ParityFunc> duplication_floor_cover(
    const DetectabilityTable& table) {
  std::uint64_t used = 0;
  std::vector<ParityFunc> out;
  for (const auto& ec : table.cases) {
    for (int k = 0; k < ec.length; ++k) {
      const std::uint64_t w = ec.diff[static_cast<std::size_t>(k)];
      if (w == 0) continue;
      const ParityFunc beta = w & (~w + 1);
      if (!(used & beta)) {
        used |= beta;
        out.push_back(beta);
      }
      break;
    }
  }
  return out;
}

namespace {

/// The degradation cascade on one (possibly condensed) table, driven by
/// the solver_cascade() table (core/solver.hpp): start at the requested
/// level, run each Solver until one certifies a scheme, and record every
/// fall-through. The public wrapper below handles condensation and
/// full-table re-verification.
std::vector<ParityFunc> select_parities_on(
    const DetectabilityTable& table, const PipelineOptions& opts,
    const Deadline& deadline, Algorithm1Stats* stats,
    std::span<const ParityFunc> warm_start, ResilienceReport& resilience) {
  const auto t0 = std::chrono::steady_clock::now();
  resilience.solver_requested = cascade_level_of(opts.solver);
  resilience.solver_used = resilience.solver_requested;
  if (table.cases.empty()) {
    if (stats) stats->final_q = 0;
    return {};
  }

  // One context for every level: the kernel and the hardness ordering
  // depend only on the table, and the run-scoped state (deadline, outputs,
  // warm start, sinks) no longer travels as five parallel parameters.
  SolverContext ctx(table);
  ctx.deadline = deadline;
  ctx.stats = stats;
  ctx.resilience = &resilience;
  ctx.warm_start = warm_start;
  ctx.obs = opts.obs;
  ctx.cascade_start = t0;

  const auto cascade = solver_cascade();
  for (std::size_t i = cascade_entry(opts.solver); i < cascade.size(); ++i) {
    Result<ParityScheme> r = cascade[i]->solve(ctx, opts);
    if (r) {
      resilience.solver_used = r->level;
      return std::move(r->parities);
    }
    // This level could not certify an answer: record the downgrade,
    // naming the level the cascade falls to, and keep going.
    const Solver* next = i + 1 < cascade.size() ? cascade[i + 1] : nullptr;
    std::string detail = r.status().message;
    if (next != nullptr) {
      detail += "; falling back to ";
      detail += next->name();
    }
    resilience.record(r.status().stage, r.status().code, std::move(detail),
                      seconds_since(t0), table.cases.size());
    if (next != nullptr) resilience.solver_used = next->level();
  }

  // Unreachable in practice — the greedy level's single-bit close-out never
  // fails — but keep the cascade total: the duplication floor is computable
  // unconditionally in one pass.
  resilience.record(Stage::kPipeline, StatusCode::kInternal,
                    "every cascade level failed; emitting the duplication "
                    "floor directly",
                    seconds_since(t0), table.cases.size());
  resilience.solver_used = CascadeLevel::kDuplication;
  auto floor = duplication_floor_cover(table);
  if (stats) stats->final_q = static_cast<int>(floor.size());
  return floor;
}

}  // namespace

std::vector<ParityFunc> select_parities_resilient(
    const DetectabilityTable& table, const PipelineOptions& opts,
    const Deadline& deadline, Algorithm1Stats* stats,
    std::span<const ParityFunc> warm_start, ResilienceReport& resilience) {
  if (!opts.condense || table.cases.empty()) {
    return select_parities_on(table, opts, deadline, stats, warm_start,
                              resilience);
  }

  // Subset-dominance condensation (coverkernel.hpp): rows whose word set
  // contains another row's word set add no constraint, so the solvers see
  // a smaller m with the same optimal q.
  const CondensedTable cond = condense_table(table);
  if (stats) stats->condensed_cases = cond.table.cases.size();
  if (cond.removed == 0) {
    return select_parities_on(table, opts, deadline, stats, warm_start,
                              resilience);
  }
  std::vector<ParityFunc> sol = select_parities_on(
      cond.table, opts, deadline, stats, warm_start, resilience);
  // The dominance argument makes a condensed-table cover a full-table
  // cover; re-verify anyway (cheap on the kernel) so a condensation defect
  // could never ship an unsound scheme — fall back to the raw table if the
  // impossible happens.
  if (!covers_all(sol, table)) {
    resilience.record(Stage::kPipeline, StatusCode::kInternal,
                      "condensed-table cover failed full-table verification; "
                      "re-solving on the raw table",
                      0.0, table.cases.size());
    if (stats) stats->condensed_cases = 0;
    return select_parities_on(table, opts, deadline, stats, warm_start,
                              resilience);
  }
  return sol;
}

Design derive_design(const fsm::Fsm& f, const PipelineOptions& opts) {
  Design d{fsm::synthesize_fsm(f, opts.encoding, opts.synth), {}};
  d.faults = sim::enumerate_stuck_at(d.circuit.netlist, opts.faults);
  return d;
}

std::string extraction_key(const Design& design, const PipelineOptions& opts,
                           int latency) {
  ExtractOptions ex = opts.extract;
  ex.latency = latency;
  return extraction_digest(
      design.circuit, design.faults, ex,
      resolve_checkpoint_shards(opts.checkpoint_shards, design.faults.size()));
}

std::vector<PipelineReport> run_latency_sweep_impl(
    const fsm::Fsm& f, std::span<const int> latencies,
    const PipelineOptions& opts) {
  if (latencies.empty()) return {};
  const Deadline deadline = Deadline::from(opts.budget);
  for (int p : latencies) {
    if (p < 1 || p > kMaxLatency) {
      return classified_reports(
          latencies, opts,
          Status::invalid_input(Stage::kPipeline,
                                "latency bound " + std::to_string(p) +
                                    " out of range [1, " +
                                    std::to_string(kMaxLatency) + "]"));
    }
  }

  // Install the run's execution policy ambiently: every stage below —
  // and, via parallel_for's propagation, every worker thread it spawns —
  // resolves its thread count against it. The policy never shapes
  // results, only wall-clock.
  const ScopedExecPolicy exec_scope(opts.exec);

  try {
    obs::ScopedSpan run_span(opts.obs, "pipeline");
    run_span.attr("latencies", static_cast<std::uint64_t>(latencies.size()));
    const obs::Sinks run_obs = opts.obs.under(run_span.id());

    // Every stage boundary below is ONE clock sample shared by the closing
    // and the opening stage (obs::StageClock), so the per-report stage
    // times telescope exactly to the run total. The synth lap covers the
    // whole derive_design (synthesis and fault enumeration); extract
    // starts at the same sample, so the laps stay gap-free.
    obs::StageClock clock;
    const std::uint64_t synth_span =
        clock.open(run_obs.tracer, "synth", run_obs.parent_span);
    const Design design = derive_design(f, opts);
    const double t_synth = clock.close(run_obs.tracer, synth_span);
    const fsm::FsmCircuit& circuit = design.circuit;
    const std::vector<sim::StuckAtFault>& faults = design.faults;
    if (circuit.n() > 64) {
      return classified_reports(
          latencies, opts,
          Status::invalid_input(Stage::kSynth,
                                "more than 64 observable bits"));
    }

    const std::uint64_t extract_span =
        clock.open(run_obs.tracer, "extract", run_obs.parent_span);

    const int p_max = *std::max_element(latencies.begin(), latencies.end());
    ExtractOptions ex = opts.extract;
    ex.latency = p_max;
    ex.deadline = deadline;
    ex.threads = opts.exec.threads;
    if (run_obs.enabled()) ex.obs = run_obs.under(extract_span);
    if (opts.budget.max_cases > 0) ex.max_cases = opts.budget.max_cases;
    std::vector<DetectabilityTable> tables;
    std::vector<std::string> store_events;
    std::string extraction_key;
    bool archive_hit = false;
    if (opts.archive != nullptr) {
      // Content-addressed cache: the key pins circuit, fault list, the
      // result-shaping extraction options and the shard partition, so a hit
      // is byte-identical to what extraction would have produced.
      extraction_key = core::extraction_key(design, opts, p_max);
      tables = opts.archive->load_tables(extraction_key);
      const bool shape_ok =
          tables.size() == static_cast<std::size_t>(p_max) &&
          tables.front().num_bits == circuit.n() &&
          tables.front().num_faults == faults.size();
      if (!tables.empty() && !shape_ok) {
        store_events.push_back(
            "stored table bundle has the wrong shape for key " +
            extraction_key + "; ignoring it and re-extracting");
        tables.clear();
      }
      archive_hit = !tables.empty();
      if (tables.empty()) {
        auto hooks = opts.archive->shard_hooks(extraction_key);
        if (!opts.resume) hooks.load = {};  // checkpoint reuse is opt-in
        const ShardPlan plan{opts.checkpoint_shards, opts.max_new_shards};
        tables = extract_cases_sharded(circuit, faults, ex, plan, hooks);
        const bool complete = std::none_of(
            tables.begin(), tables.end(),
            [](const DetectabilityTable& t) { return t.truncated; });
        if (complete) {
          opts.archive->store_tables(extraction_key, tables);
          opts.archive->drop_shards(extraction_key);
        }
      }
      for (auto& e : opts.archive->drain_events()) {
        store_events.push_back(std::move(e));
      }
    } else {
      tables = extract_cases_multi(circuit, faults, ex);
    }
    const double t_extract = clock.close(run_obs.tracer, extract_span);
    if (run_obs.metrics != nullptr && !tables.empty()) {
      // Stage-level extraction metrics (write-only; the deepest table is
      // the superset every smaller latency is a prefix of).
      const DetectabilityTable& deep = tables.back();
      obs::MetricsShard shard(run_obs.metrics);
      shard.add("ced_extract_cases_total",
                static_cast<std::uint64_t>(deep.cases.size()));
      shard.add("ced_extract_activations_total", deep.num_activations);
      shard.add("ced_extract_paths_total", deep.num_paths);
      shard.add("ced_extract_faults_total",
                static_cast<std::uint64_t>(faults.size()));
      if (opts.archive != nullptr) {
        shard.add(archive_hit ? "ced_store_table_hits_total"
                              : "ced_store_table_misses_total");
      }
      shard.add("ced_store_events_total",
                static_cast<std::uint64_t>(store_events.size()));
      shard.flush();
      if (t_extract > 0.0) {
        run_obs.metrics->set_gauge(
            "ced_extract_cases_per_second",
            static_cast<double>(deep.cases.size()) / t_extract);
      }
    }
    const bool any_truncated =
        std::any_of(tables.begin(), tables.end(),
                    [](const DetectabilityTable& t) { return t.truncated; });

    std::vector<PipelineReport> reports;
    std::vector<ParityFunc> warm;
    for (int p : latencies) {
      const DetectabilityTable& table =
          tables[static_cast<std::size_t>(p - 1)];
      // A cover for latency p stays valid at p+1 (detecting at step 1 is
      // always allowed), so sweeping in ascending order lets each latency
      // warm-start from the previous solution; q(p) becomes monotone. The
      // unverified assignment shortcut additionally requires every table of
      // the sweep to be complete (truncated tables lose the containment
      // argument between latencies).
      const bool ascending = warm.empty() || p >= reports.back().latency;
      PipelineReport rep =
          report_for(design, table, opts, deadline, warm,
                     ascending && !any_truncated, clock, run_obs);
      rep.t_synth = t_synth;
      rep.t_extract = t_extract;
      rep.extraction_key = extraction_key;
      rep.resilience.store_events = store_events;
      warm = rep.parities;
      reports.push_back(std::move(rep));
    }
    return reports;
  } catch (const std::invalid_argument& e) {
    return classified_reports(
        latencies, opts, Status::invalid_input(Stage::kPipeline, e.what()));
  } catch (const std::exception& e) {
    return classified_reports(latencies, opts,
                              Status::internal(Stage::kPipeline, e.what()));
  }
}

}  // namespace ced::core
