#include "common.hpp"

#include <cstdlib>
#include <cstring>
#include <optional>

#include "common/parallel.hpp"
#include "core/run.hpp"
#include "storage/store.hpp"

namespace ced::bench {

bool quick_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) return true;
  }
  return false;
}

int threads_from_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      const int v = std::atoi(argv[i] + 10);
      return v >= 1 ? v : 0;
    }
  }
  return 0;
}

std::vector<std::string> circuits_from_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--circuits=", 11) == 0) {
      std::vector<std::string> out;
      std::string cur;
      for (const char* c = arg + 11; ; ++c) {
        if (*c == ',' || *c == '\0') {
          if (!cur.empty()) out.push_back(cur);
          cur.clear();
          if (*c == '\0') break;
        } else {
          cur.push_back(*c);
        }
      }
      return out;
    }
  }
  if (quick_mode(argc, argv)) return benchdata::small_suite_names();
  std::vector<std::string> all;
  for (const auto& e : benchdata::mcnc_suite()) all.push_back(e.name);
  return all;
}

std::string store_from_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--store=", 8) == 0) return argv[i] + 8;
  }
  return {};
}

std::vector<core::PipelineReport> sweep_circuit(const std::string& name,
                                                const std::vector<int>& ps,
                                                core::PipelineOptions opts,
                                                const std::string& store_dir) {
  std::fprintf(stderr, "[bench] %s ...\n", name.c_str());
  // The store (when used) is scoped to this sweep; the directory persists
  // between harness runs. Concurrent sweeps over the same directory are
  // safe: every write is atomic and every read is validated.
  std::optional<storage::ArtifactStore> store;
  std::optional<storage::StoreArchive> archive;
  if (!store_dir.empty()) {
    store.emplace(store_dir);
    archive.emplace(*store);
    opts.archive = &*archive;
    opts.resume = true;
  }
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

std::vector<std::vector<core::PipelineReport>> sweep_suite(
    const std::vector<std::string>& names, const std::vector<int>& ps,
    core::PipelineOptions opts, int threads, const std::string& store_dir) {
  const int workers = resolve_threads(threads);
  core::PipelineOptions inner = opts;
  if (workers > 1 && names.size() > 1) inner.exec.threads = 1;
  std::vector<std::vector<core::PipelineReport>> out(names.size());
  parallel_for(workers, names.size(), [&](std::size_t i) {
    out[i] = sweep_circuit(names[i], ps, inner, store_dir);
  });
  return out;
}

bool any_degraded(const std::vector<core::PipelineReport>& reps) {
  for (const core::PipelineReport& r : reps) {
    if (r.resilience.degraded()) return true;
  }
  return false;
}

const char* quality_tag(const core::PipelineReport& r) {
  return r.resilience.degraded() ? "*" : "";
}

double reduction_pct(double from, double to) {
  if (from == 0.0) return 0.0;
  return 100.0 * (from - to) / from;
}

}  // namespace ced::bench
