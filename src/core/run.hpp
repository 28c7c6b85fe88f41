#pragma once

// The public pipeline API: one validated configuration object.
//
//   auto cfg = ced::RunConfig::Builder()
//                  .latency(2)
//                  .solver(core::SolverKind::kLpRounding)
//                  .threads(4)
//                  .budget(budget)
//                  .observe({&tracer, &metrics})
//                  .build();                 // Result<RunConfig>
//   if (!cfg) { /* cfg.status() says which knob is out of contract */ }
//   core::PipelineReport rep = ced::run_pipeline(f, *cfg);
//
// ced::run_pipeline / ced::run_latency_sweep are the single entry points.

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/pipeline.hpp"

namespace ced {

/// A validated, run-ready pipeline configuration. Construct through the
/// Builder (validation happens once, in build()); a default-constructed
/// RunConfig carries the library defaults, which are always valid.
class RunConfig {
 public:
  class Builder;

  RunConfig() = default;

  /// The underlying option block consumed by the pipeline internals.
  const core::PipelineOptions& options() const { return opts_; }

  /// Observability sinks for this run (all-null when not observing).
  const obs::Sinks& sinks() const { return opts_.obs; }

  /// Stable 32-hex-char fingerprint of every result-shaping knob (solver,
  /// latency, budget, extraction shaping, seeds, shard partition).
  /// Deliberately EXCLUDES pure execution knobs — the thread count,
  /// archive binding, resume, and the obs sinks — which change neither q
  /// nor the selected parities, except that the thread count sets the
  /// shard partition of a no-store run and so moves a table that degrades
  /// (DESIGN.md §7, "Known defect"). Two runs with equal digests and equal
  /// inputs produce the same scheme apart from that, so requests differing
  /// only in thread count dedup onto one cache entry.
  /// Recorded in the run manifest.
  std::string digest() const;

  /// Adopts an existing option block without validation (tests and bench
  /// harnesses that set PipelineOptions fields directly); other callers
  /// should use the Builder.
  static RunConfig wrap(core::PipelineOptions opts);

 private:
  core::PipelineOptions opts_;
};

/// Fluent builder. Setters cover the knobs callers actually vary; tune()
/// is the escape hatch for deep fields (LP iteration caps, the checker's
/// don't-cares and two-rail comparator, fault-model flags) so the full
/// PipelineOptions surface stays reachable without one builder method per
/// leaf field.
class RunConfig::Builder {
 public:
  Builder() = default;
  /// Starts from an existing configuration (re-validate after edits).
  explicit Builder(const RunConfig& base) : opts_(base.opts_) {}

  Builder& latency(int p);
  Builder& solver(core::SolverKind kind);
  Builder& encoding(fsm::EncodingKind e);
  Builder& semantics(core::DiffSemantics s);
  /// Worker threads for the run (ExecPolicy::threads, common/exec.hpp):
  /// 0 defers to the CED_THREADS environment variable, then to the
  /// hardware concurrency. Never part of digest(): the thread count
  /// changes no result except a no-store table that degrades (DESIGN.md
  /// §7, "Known defect").
  Builder& threads(int n);
  Builder& seed(std::uint64_t s);

  Builder& budget(const core::RunBudget& b);
  Builder& wall_seconds(double s);
  Builder& max_cases(std::size_t n);

  Builder& archive(core::ExtractArchive* a);
  Builder& resume(bool on);
  Builder& checkpoint_shards(int n);
  Builder& max_new_shards(int n);

  Builder& observe(const obs::Sinks& sinks);

  /// Mutates the raw option block (applied in call order, before
  /// validation). The documented escape hatch for fields without a
  /// dedicated setter.
  Builder& tune(const std::function<void(core::PipelineOptions&)>& fn);

  /// Validates and freezes the configuration. On contract violations the
  /// Result carries kInvalidInput naming the first offending knob.
  Result<RunConfig> build() const;

 private:
  core::PipelineOptions opts_;
};

/// Runs the full flow on one FSM under a validated configuration — the
/// single pipeline entry point. The report is link p = cfg.latency of the
/// ascending solve chain: it equals run_latency_sweep(f, {1..p}, cfg)'s
/// last report.
core::PipelineReport run_pipeline(const fsm::Fsm& f, const RunConfig& cfg);

/// Shared-extraction sweep over several latency bounds, in any order (see
/// core::run_latency_sweep_impl): the report at p is link p of the one
/// ascending solve chain, whatever else was requested. cfg.latency is
/// ignored in favour of `latencies`.
std::vector<core::PipelineReport> run_latency_sweep(
    const fsm::Fsm& f, std::span<const int> latencies, const RunConfig& cfg);

}  // namespace ced
