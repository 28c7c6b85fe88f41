// perfbench: the repository benchmark. Usually started through
// perfbench/run.py, which builds it first:
//
//   perfbench --workload protect_cold|protect_warm|campaign
//             --seed N --seconds S --trace 0|1 [--smoke] [--write-pins]
//             --work-dir DIR --trace-dir DIR --pins FILE
//
// The last line of standard output is the result:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {...}}

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/cpu.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Config;
using perfbench::Outcome;

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set);
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

bool parse(int argc, char** argv, Config& cfg) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--smoke") {
      cfg.smoke = true;
    } else if (a == "--write-pins") {
      cfg.write_pins = true;
    } else if ((v = value()) == nullptr) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", a.c_str());
      return false;
    } else if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      cfg.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--work-dir") {
      cfg.work_dir = v;
    } else if (a == "--trace-dir") {
      cfg.trace_dir = v;
    } else if (a == "--pins") {
      cfg.pins_path = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", a.c_str());
      return false;
    }
  }
  return !cfg.workload.empty() && !cfg.work_dir.empty() &&
         !cfg.trace_dir.empty() && !cfg.pins_path.empty();
}

void print_result(const Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct() ? "true" : "false",
              static_cast<unsigned long long>(out.attempted()),
              static_cast<unsigned long long>(out.failed()));
  const char* sep = "";
  for (const auto& [name, m] : out.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  if (!parse(argc, argv, cfg)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR --trace-dir DIR --pins FILE "
                 "[--smoke] [--write-pins]\n");
    return 2;
  }
  const int nproc = usable_cpus();
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("# host {\"nproc\": %d, \"hardware_threads\": %u, "
              "\"build_type\": \"%s\", \"compiler\": \"%s\", \"simd\": "
              "\"%s\", \"seed\": %llu, \"threads\": %d}\n",
              nproc, hw, PERFBENCH_BUILD_TYPE, compiler().c_str(),
              ced::to_string(ced::simd_level()),
              static_cast<unsigned long long>(cfg.seed), perfbench::kThreads);
  if (nproc < perfbench::kThreads) {
    std::fprintf(stderr,
                 "perfbench: the workloads use %d threads but this host "
                 "gives the process %d; refusing to run\n",
                 perfbench::kThreads, nproc);
    return 2;
  }

#ifdef __GLIBC__
  // A fixed mmap threshold: glibc otherwise raises it as large blocks are
  // freed, so whether a later large block is returned to the system on
  // free depended on what ran before it, and the same s1488 sweep peaked at
  // 42 to 57 MiB with the circuit order; with the threshold fixed, 41.6.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  cfg.work_dir += "/" + cfg.workload + "-" + std::to_string(getpid());
  std::filesystem::remove_all(cfg.work_dir);
  std::filesystem::create_directories(cfg.work_dir);
  Outcome out;
  if (cfg.workload == "protect_cold") {
    out = perfbench::run_protect_cold(cfg);
  } else if (cfg.workload == "protect_warm") {
    out = perfbench::run_protect_warm(cfg);
  } else if (cfg.workload == "campaign") {
    out = perfbench::run_campaign_workload(cfg);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 cfg.workload.c_str());
    return 2;
  }
  std::filesystem::remove_all(cfg.work_dir);
  for (const std::string& p : out.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  }
  if (out.attempted() == 0) {
    std::fprintf(stderr, "perfbench: no operation ran\n");
    return 1;
  }
  std::fflush(stderr);
  print_result(out);
  return 0;
}
