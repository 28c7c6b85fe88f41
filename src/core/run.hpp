#pragma once

// The consolidated public pipeline API.
//
// PRs 1-4 accreted knobs onto core::PipelineOptions one orthogonal feature
// at a time (budget valves, store/resume, thread counts, condensation, and
// now observability sinks); callers assembled the struct field-by-field
// with no validation until deep inside the run. This header collapses that
// sprawl into one validated object:
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
// ced::run_pipeline / ced::run_latency_sweep are the single entry points;
// the old core::run_pipeline(f, PipelineOptions) shims were removed after
// their transition period (every in-tree caller migrated).

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
  /// archive binding, resume, and the obs sinks — which never change q or
  /// the selected parities; two runs with equal digests and equal inputs
  /// produce the same scheme, so requests differing only in thread count
  /// dedup onto one cache entry.
  /// Recorded in the run manifest.
  std::string digest() const;

  /// Adopts an existing option block without validation. Transitional —
  /// the deprecated core:: shims and benches funnel through here; new code
  /// should use the Builder.
  static RunConfig wrap(core::PipelineOptions opts);

 private:
  core::PipelineOptions opts_;
};

/// Fluent builder. Setters cover the knobs callers actually vary; tune()
/// is the escape hatch for deep fields (LP iteration caps, synthesis
/// options, fault-model flags) so the full PipelineOptions surface stays
/// reachable without one builder method per leaf field.
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
  /// hardware concurrency. Never part of digest() — the thread count
  /// cannot change results.
  Builder& threads(int n);
  Builder& condense(bool on);
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
/// single pipeline entry point.
core::PipelineReport run_pipeline(const fsm::Fsm& f, const RunConfig& cfg);

/// Shared-extraction sweep over several latency bounds (see
/// core::PipelineReport); cfg.latency is ignored in favour of `latencies`.
std::vector<core::PipelineReport> run_latency_sweep(
    const fsm::Fsm& f, std::span<const int> latencies, const RunConfig& cfg);

}  // namespace ced
