#include "core/run.hpp"

#include "common/digest.hpp"
#include "core/erroneous_case.hpp"

namespace ced {

using core::PipelineOptions;

RunConfig RunConfig::wrap(core::PipelineOptions opts) {
  RunConfig cfg;
  cfg.opts_ = std::move(opts);
  return cfg;
}

std::string RunConfig::digest() const {
  const PipelineOptions& o = opts_;
  Digest128 d;
  d.absorb(std::uint64_t{1});  // config-digest schema version
  d.absorb(static_cast<std::uint64_t>(o.encoding));
  d.absorb(static_cast<std::uint64_t>(o.latency));
  d.absorb(static_cast<std::uint64_t>(o.solver));
  d.absorb(std::uint64_t{o.condense ? 1u : 0u});
  // Synthesis shaping (front end and CED back end).
  d.absorb(static_cast<std::uint64_t>(o.synth.minimizer));
  d.absorb(std::uint64_t{o.synth.factor ? 1u : 0u});
  d.absorb(std::uint64_t{o.synth.optimize ? 1u : 0u});
  d.absorb(static_cast<std::uint64_t>(o.ced.minimizer));
  d.absorb(std::uint64_t{o.ced.dc_unreachable ? 1u : 0u});
  d.absorb(std::uint64_t{o.ced.factor ? 1u : 0u});
  d.absorb(std::uint64_t{o.ced.optimize ? 1u : 0u});
  d.absorb(std::uint64_t{o.ced.two_rail ? 1u : 0u});
  // Fault model + extraction shaping.
  d.absorb(std::uint64_t{o.faults.collapse ? 1u : 0u});
  d.absorb(static_cast<std::uint64_t>(o.extract.semantics));
  d.absorb(std::uint64_t{o.extract.restrict_to_reachable ? 1u : 0u});
  d.absorb(static_cast<std::uint64_t>(o.extract.degrade_threshold));
  d.absorb(static_cast<std::uint64_t>(o.extract.max_cases));
  d.absorb(static_cast<std::uint64_t>(o.checkpoint_shards));
  // Solver knobs (Algorithm 1, exact, greedy, LP).
  d.absorb(static_cast<std::uint64_t>(o.algo.iter));
  d.absorb(static_cast<std::uint64_t>(o.algo.lp_sample_rows));
  d.absorb(static_cast<std::uint64_t>(o.algo.row_rounds));
  d.absorb(static_cast<std::uint64_t>(o.algo.verify_sample_cap));
  d.absorb(std::uint64_t{o.algo.repair ? 1u : 0u});
  d.absorb(std::uint64_t{o.algo.post_optimize ? 1u : 0u});
  d.absorb(std::uint64_t{o.algo.use_statement5 ? 1u : 0u});
  d.absorb(o.algo.seed);
  d.absorb(static_cast<std::uint64_t>(o.algo.lp.max_iterations));
  d.absorb(o.algo.lp.eps);
  d.absorb(static_cast<std::uint64_t>(o.algo.greedy.restarts));
  d.absorb(static_cast<std::uint64_t>(o.algo.greedy.sample_cap));
  d.absorb(o.algo.greedy.seed);
  d.absorb(static_cast<std::uint64_t>(o.exact.max_bits));
  d.absorb(static_cast<std::uint64_t>(o.exact.max_nodes));
  // Budget valves: they shape (truncate) results, so they are part of the
  // config identity even though complete runs never feel them.
  d.absorb(o.budget.wall_seconds);
  d.absorb(static_cast<std::uint64_t>(o.budget.max_cases));
  d.absorb(static_cast<std::uint64_t>(o.budget.max_lp_iterations));
  d.absorb(static_cast<std::uint64_t>(o.budget.max_rounding_attempts));
  d.absorb(static_cast<std::uint64_t>(o.budget.max_exact_nodes));
  d.absorb(static_cast<std::uint64_t>(o.max_new_shards));
  return d.hex();
}

RunConfig::Builder& RunConfig::Builder::latency(int p) {
  opts_.latency = p;
  return *this;
}
RunConfig::Builder& RunConfig::Builder::solver(core::SolverKind kind) {
  opts_.solver = kind;
  return *this;
}
RunConfig::Builder& RunConfig::Builder::encoding(fsm::EncodingKind e) {
  opts_.encoding = e;
  return *this;
}
RunConfig::Builder& RunConfig::Builder::semantics(core::DiffSemantics s) {
  opts_.extract.semantics = s;
  return *this;
}
RunConfig::Builder& RunConfig::Builder::threads(int n) {
  opts_.exec.threads = n;
  return *this;
}
RunConfig::Builder& RunConfig::Builder::condense(bool on) {
  opts_.condense = on;
  return *this;
}
RunConfig::Builder& RunConfig::Builder::seed(std::uint64_t s) {
  opts_.algo.seed = s;
  return *this;
}
RunConfig::Builder& RunConfig::Builder::budget(const core::RunBudget& b) {
  opts_.budget = b;
  return *this;
}
RunConfig::Builder& RunConfig::Builder::wall_seconds(double s) {
  opts_.budget.wall_seconds = s;
  return *this;
}
RunConfig::Builder& RunConfig::Builder::max_cases(std::size_t n) {
  opts_.budget.max_cases = n;
  return *this;
}
RunConfig::Builder& RunConfig::Builder::archive(core::ExtractArchive* a) {
  opts_.archive = a;
  return *this;
}
RunConfig::Builder& RunConfig::Builder::resume(bool on) {
  opts_.resume = on;
  return *this;
}
RunConfig::Builder& RunConfig::Builder::checkpoint_shards(int n) {
  opts_.checkpoint_shards = n;
  return *this;
}
RunConfig::Builder& RunConfig::Builder::max_new_shards(int n) {
  opts_.max_new_shards = n;
  return *this;
}
RunConfig::Builder& RunConfig::Builder::observe(const obs::Sinks& sinks) {
  opts_.obs = sinks;
  return *this;
}
RunConfig::Builder& RunConfig::Builder::tune(
    const std::function<void(core::PipelineOptions&)>& fn) {
  fn(opts_);
  return *this;
}

Result<RunConfig> RunConfig::Builder::build() const {
  const PipelineOptions& o = opts_;
  const auto invalid = [](std::string msg) {
    return Result<RunConfig>(
        Status::invalid_input(Stage::kPipeline, std::move(msg)));
  };
  if (o.latency < 1 || o.latency > core::kMaxLatency) {
    return invalid("latency bound " + std::to_string(o.latency) +
                   " out of range [1, " + std::to_string(core::kMaxLatency) +
                   "]");
  }
  if (o.exec.threads < 0) {
    return invalid("exec.threads must be >= 0 (0 = CED_THREADS/auto), got " +
                   std::to_string(o.exec.threads));
  }
  if (o.checkpoint_shards < 0) {
    return invalid("checkpoint_shards must be >= 0 (0 = default), got " +
                   std::to_string(o.checkpoint_shards));
  }
  if (o.max_new_shards < 0) {
    return invalid("max_new_shards must be >= 0 (0 = no limit), got " +
                   std::to_string(o.max_new_shards));
  }
  if (o.archive == nullptr && o.resume) {
    return invalid("resume requested without an artifact archive");
  }
  if (o.archive == nullptr && o.max_new_shards > 0) {
    return invalid("max_new_shards requested without an artifact archive");
  }
  if (o.budget.wall_seconds < 0.0) {
    return invalid("budget.wall_seconds must be >= 0, got " +
                   std::to_string(o.budget.wall_seconds));
  }
  if (o.budget.max_lp_iterations < 0 || o.budget.max_rounding_attempts < 0) {
    return invalid("budget iteration caps must be >= 0");
  }
  if (o.algo.iter < 1) {
    return invalid("algo.iter (rounding attempts per LP solution) must be "
                   ">= 1, got " + std::to_string(o.algo.iter));
  }
  if (o.algo.lp_sample_rows < 1 || o.algo.row_rounds < 1) {
    return invalid("algo.lp_sample_rows and algo.row_rounds must be >= 1");
  }
  if (o.exact.max_bits < 1 || o.exact.max_bits > 64) {
    return invalid("exact.max_bits out of range [1, 64], got " +
                   std::to_string(o.exact.max_bits));
  }
  return RunConfig::wrap(o);
}

core::PipelineReport run_pipeline(const fsm::Fsm& f, const RunConfig& cfg) {
  auto sweep = run_latency_sweep(
      f, std::vector<int>{cfg.options().latency}, cfg);
  return std::move(sweep.front());
}

std::vector<core::PipelineReport> run_latency_sweep(
    const fsm::Fsm& f, std::span<const int> latencies, const RunConfig& cfg) {
  return core::run_latency_sweep_impl(f, latencies, cfg.options());
}

}  // namespace ced
