#include "common.hpp"

#include <sstream>

#include "core/run.hpp"

namespace ced::bench {

std::vector<std::string> circuits_from_args(int argc, char** argv) {
  const std::string list = cli::arg_value(argc, argv, "--circuits");
  if (!list.empty()) {
    std::vector<std::string> out;
    std::istringstream in(list);
    for (std::string name; std::getline(in, name, ',');) {
      if (!name.empty()) out.push_back(name);
    }
    return out;
  }
  if (cli::has_flag(argc, argv, "--quick")) {
    return benchdata::small_suite_names();
  }
  std::vector<std::string> all;
  for (const auto& e : benchdata::mcnc_suite()) all.push_back(e.name);
  return all;
}

std::vector<core::PipelineReport> sweep_circuit(const std::string& name,
                                                const std::vector<int>& ps,
                                                core::PipelineOptions opts) {
  std::fprintf(stderr, "[bench] %s ...\n", name.c_str());
  std::vector<core::PipelineReport> reps;
  try {
    const fsm::Fsm f = benchdata::suite_fsm(name);
    reps = ced::run_latency_sweep(f, ps, RunConfig::wrap(opts));
  } catch (const std::exception& e) {
    // Unknown circuit name (or any setup failure): emit classified rows so
    // the sweep's remaining circuits still run.
    for (const int p : ps) {
      core::PipelineReport r;
      r.latency = p;
      r.resilience.status =
          Status::invalid_input(Stage::kPipeline, e.what());
      reps.push_back(r);
    }
  }
  // One oversized/misbehaving circuit must not silently poison a Table-1
  // sweep: flag every degraded row so its numbers are read as lower bounds.
  for (const core::PipelineReport& r : reps) {
    if (r.resilience.degraded()) {
      std::fprintf(stderr, "[bench] %s p=%d DEGRADED\n%s", name.c_str(),
                   r.latency, r.resilience.summary().c_str());
    }
  }
  return reps;
}

double reduction_pct(double from, double to) {
  if (from == 0.0) return 0.0;
  return 100.0 * (from - to) / from;
}

}  // namespace ced::bench
