#include "core/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace ced::core {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The cascade level a requested solver enters at.
CascadeLevel requested_level(SolverKind kind) {
  return kind == SolverKind::kGreedy ? CascadeLevel::kGreedy
                                     : CascadeLevel::kLpRounding;
}

/// Link p of the solve chain: the report fields table p determines and the
/// cascade's cover of it, warm-started from link p-1's cover `below`. A
/// cover for a smaller latency bound is always a valid cover for this one
/// (detecting earlier is allowed), so the link adopts `below` when the
/// solver found nothing smaller, even on a conservatively strengthened
/// table. The containment argument needs complete tables, so
/// `all_complete` gates the adoption. Laps the clock once, in the link's
/// own solve span.
PipelineReport solve_link(const DetectabilityTable& table,
                          const PipelineOptions& opts,
                          const Deadline& deadline,
                          std::span<const ParityFunc> below, bool all_complete,
                          obs::StageClock& clock, const obs::Sinks& run_obs) {
  PipelineReport rep;
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
  // Reparent the sinks under this link's solve span so the cascade's
  // spans (algorithm1, greedy, lp-solve) nest beneath it.
  PipelineOptions solve_opts;
  const PipelineOptions* effective = &opts;
  if (run_obs.enabled()) {
    solve_opts = opts;
    solve_opts.obs = run_obs.under(solve_span);
    effective = &solve_opts;
  }
  rep.parities = select_parities_resilient(
      table, *effective, deadline, &rep.algo_stats, below, rep.resilience);
  if (all_complete && !below.empty() && below.size() < rep.parities.size()) {
    rep.parities.assign(below.begin(), below.end());
    rep.algo_stats.final_q = static_cast<int>(rep.parities.size());
  }
  rep.t_solve = clock.close(run_obs.tracer, solve_span);
  rep.num_trees = static_cast<int>(rep.parities.size());
  return rep;
}

/// Completes a requested link's report: the design's own fields, the
/// checker for its cover from the run's one synthesizer, and its cost.
void finish_report(PipelineReport& rep, const Design& design,
                   const PipelineOptions& opts,
                   std::optional<CedSynthesizer>& ced, obs::StageClock& clock,
                   const obs::Sinks& run_obs) {
  fill_design_fields(rep, design, opts.library);

  const std::uint64_t ced_span =
      clock.open(run_obs.tracer, "ced-synth", run_obs.parent_span);
  // One synthesizer per run, built in the first report's CED lap: it
  // simulates the golden rows once and hands back the previous checker
  // when the chain's scheme repeats.
  if (!ced) ced.emplace(design.circuit, opts.ced, opts.exec.threads);
  rep.hw = ced->synthesize(rep.parities);
  const auto cost = rep.hw.cost(opts.library);
  rep.ced_gates = cost.gates;
  rep.ced_area = cost.area;
  const std::uint64_t predictors = ced->reused() ? 0 : rep.parities.size();
  if (run_obs.metrics != nullptr) {
    run_obs.metrics->add("ced_checker_predictors_total", predictors);
    run_obs.metrics->add("ced_checker_reuses_total", ced->reused() ? 1 : 0);
  }
  if (run_obs.tracer != nullptr && ced_span != 0) {
    run_obs.tracer->attr(ced_span, "predictors", std::to_string(predictors));
    run_obs.tracer->attr(ced_span, "reused", ced->reused() ? "yes" : "no");
  }
  rep.t_ced = clock.close(run_obs.tracer, ced_span);

  if (rep.resilience.status.ok() && rep.resilience.degraded()) {
    rep.resilience.status = Status::truncated(
        Stage::kPipeline,
        "run degraded under budget; cover is valid for the cases covered");
  }
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
    rep.resilience.solver_requested = requested_level(opts.solver);
    rep.resilience.solver_used = requested_level(opts.solver);
    rep.resilience.status = status;
    reports.push_back(std::move(rep));
  }
  return reports;
}

}  // namespace

std::vector<ParityFunc> select_parities_resilient(
    const DetectabilityTable& table, const PipelineOptions& opts,
    const Deadline& deadline, Algorithm1Stats* stats,
    std::span<const ParityFunc> warm_start, ResilienceReport& resilience) {
  const auto t0 = std::chrono::steady_clock::now();
  resilience.solver_requested = requested_level(opts.solver);
  resilience.solver_used = resilience.solver_requested;
  // The table is solved as given: extraction already left its cases
  // subset-minimal (DetectabilityTable::cases), so there is nothing to
  // condense, and both levels verify their cover against this table.
  if (stats) stats->condensed_cases = table.cases.size();
  if (table.cases.empty()) {
    if (stats) stats->final_q = 0;
    return {};
  }

  // The kernel and the hardness ordering depend only on the table, so
  // both levels share one context.
  const SolverContext ctx(table);
  Algorithm1Stats local;
  Algorithm1Stats& st = stats != nullptr ? *stats : local;

  if (opts.solver == SolverKind::kLpRounding && deadline.expired()) {
    resilience.record(Stage::kLp, StatusCode::kTruncated,
                      "wall-clock budget exhausted before the LP stage; "
                      "falling back to greedy",
                      seconds_since(t0), table.cases.size());
    resilience.solver_used = CascadeLevel::kGreedy;
  } else if (opts.solver == SolverKind::kLpRounding) {
    Algorithm1Options algo = opts.algo;
    algo.threads = opts.exec.threads;
    if (opts.obs.enabled()) algo.obs = opts.obs;
    if (deadline.armed() && !algo.deadline.armed()) algo.deadline = deadline;
    if (opts.budget.max_lp_iterations > 0) {
      algo.lp.max_iterations = opts.budget.max_lp_iterations;
    }
    if (opts.budget.max_rounding_attempts > 0) {
      algo.iter = std::min(algo.iter, opts.budget.max_rounding_attempts);
    }
    auto sol = minimize_parity_functions(table, algo, &st, warm_start, &ctx);
    if (st.lp_budget_hit) {
      resilience.record(
          Stage::kLp, StatusCode::kTruncated,
          "LP solve stopped on its iteration/time budget (" +
              std::to_string(st.lp_iterations) + " pivots total)",
          seconds_since(t0), table.cases.size());
    }
    if (st.deadline_hit && !st.lp_budget_hit) {
      resilience.record(
          Stage::kRounding, StatusCode::kTruncated,
          "wall-clock budget cut the rounding search short after " +
              std::to_string(st.roundings) + " roundings",
          seconds_since(t0), table.cases.size());
    }
    // greedy_fallback under budget pressure means the answer really came
    // from the greedy seed; without pressure it just means the greedy
    // bound was already optimal, which is not a degradation.
    if (st.greedy_fallback && (st.lp_budget_hit || st.deadline_hit)) {
      resilience.solver_used = st.greedy_degraded
                                   ? CascadeLevel::kDuplication
                                   : CascadeLevel::kGreedy;
    }
    return sol;
  }

  // Greedy never fails: out of time, it closes the cover out with
  // single-bit functions, the duplication-style floor.
  GreedyOptions greedy = opts.algo.greedy;
  if (deadline.armed() && !greedy.deadline.armed()) greedy.deadline = deadline;
  if (opts.obs.enabled()) greedy.obs = opts.obs;
  GreedyStats gs;
  auto sol = greedy_cover(table, greedy, &gs, &ctx.kernel);
  if (gs.deadline_hit) {
    resilience.record(Stage::kGreedy, StatusCode::kTruncated,
                      "greedy search out of time; closed out with " +
                          std::to_string(gs.single_bit_completions) +
                          " single-bit functions (duplication-style floor)",
                      seconds_since(t0), table.cases.size());
    resilience.solver_used = CascadeLevel::kDuplication;
  }
  st.final_q = static_cast<int>(sol.size());
  st.greedy_fallback = true;
  st.deadline_hit = st.deadline_hit || gs.deadline_hit;
  st.greedy_degraded = st.greedy_degraded || gs.deadline_hit;
  return sol;
}

Design derive_design(const fsm::Fsm& f, const PipelineOptions& opts) {
  Design d{fsm::synthesize_fsm(f, opts.encoding), {}};
  d.faults = sim::enumerate_stuck_at(d.circuit.netlist, opts.faults);
  return d;
}

void fill_design_fields(PipelineReport& rep, const Design& design,
                        const logic::CellLibrary& library) {
  const fsm::FsmCircuit& circuit = design.circuit;
  rep.inputs = circuit.r();
  rep.state_bits = circuit.s();
  rep.outputs = circuit.o();
  const auto orig = logic::measure_area(
      circuit.netlist, library,
      static_cast<std::size_t>(circuit.s()));  // state register flip-flops
  rep.orig_gates = orig.gates;
  rep.orig_area = orig.area;
  rep.num_faults = design.faults.size();
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

    // The solve chain: links p = 1..max(latencies), lowest first, each
    // warm-started from the cover below, so q(p) never rises with p and the
    // answer at p depends on the machine, the configuration and p alone,
    // not on which other latencies the caller listed. Only requested links
    // get a checker and a report; a report's solve lap covers every link
    // solved since the previous stage boundary, so the laps still add up to
    // the run total.
    std::vector<PipelineReport> links(static_cast<std::size_t>(p_max));
    std::optional<CedSynthesizer> ced;
    double t_solve = 0.0;
    for (int p = 1; p <= p_max; ++p) {
      const auto link = static_cast<std::size_t>(p - 1);
      const std::span<const ParityFunc> below =
          p == 1 ? std::span<const ParityFunc>{} : links[link - 1].parities;
      PipelineReport& rep = links[link] =
          solve_link(tables[link], opts, deadline, below,
                     !any_truncated, clock, run_obs);
      t_solve += rep.t_solve;
      if (std::find(latencies.begin(), latencies.end(), p) ==
          latencies.end()) {
        continue;
      }
      rep.t_solve = std::exchange(t_solve, 0.0);
      finish_report(rep, design, opts, ced, clock, run_obs);
      rep.t_synth = t_synth;
      rep.t_extract = t_extract;
      rep.extraction_key = extraction_key;
      rep.resilience.store_events = store_events;
    }
    std::vector<PipelineReport> reports;
    for (int p : latencies) {
      reports.push_back(links[static_cast<std::size_t>(p - 1)]);
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
