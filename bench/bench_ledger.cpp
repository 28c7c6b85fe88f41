// Results ledger: pins what the reproduction produces, so a change that
// should not move results can prove it did not.
//
// For every circuit, both EC semantics and p = 1..3, one ledger line holds
// the detectability table's case count and a digest of its sorted case list
// (core::extract_cases_multi), the selected scheme's q and parity masks
// (ced::run_latency_sweep), and whether the exhaustive stuck-at campaign
// (sim::run_campaign) proves the bound p on the checker the sweep
// synthesized for the scheme (PipelineReport::hw; bound=holds|violated),
// that checker's cost and a digest of its netlist (ced=<gates>/<area>
// hw=<digest>), the q values Algorithm 1 probed (probes=, in order), and
// the table's enumerated paths and loop truncations (paths=, loops=),
// which pin the DFS order and its subtree pruning, not only the cases.
// All three run at a fixed 4 threads: without a store, extraction runs
// one shard per thread and divides the degrade threshold among the
// shards, so a strengthened table (s1488 p=3) depends on the thread count.
//
//   bench_ledger --check=bench/ledger.txt [--quick | --circuits=a,b]
//   bench_ledger --write=bench/ledger.txt [--quick | --circuits=a,b]
//
// --check exits 1 when a computed line differs from the ledger or has no
// ledger line; --write replaces the file with the computed lines.

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "benchdata/suite.hpp"
#include "common.hpp"
#include "common/digest.hpp"
#include "core/run.hpp"
#include "logic/netlist.hpp"
#include "sim/campaign.hpp"

namespace {

using namespace ced;

constexpr int kThreads = 4;
constexpr int kMaxP = 3;

std::string cases_digest(const core::DetectabilityTable& table) {
  Digest128 d;
  d.absorb(static_cast<std::uint64_t>(table.cases.size()));
  for (const core::ErroneousCase& ec : table.cases) {
    d.absorb(static_cast<std::uint64_t>(ec.length));
    for (int k = 0; k < ec.length; ++k) {
      d.absorb(ec.diff[static_cast<std::size_t>(k)]);
    }
  }
  return d.hex();
}

/// "holds" when the exhaustive stuck-at campaign proves bound p on
/// `design` protected by `hw`, else "violated".
const char* bound_verdict(const core::Design& design,
                          const core::CedHardware& hw, int p) {
  sim::CampaignOptions co;
  co.latency_bound = p;
  co.threads = kThreads;
  return sim::run_campaign(design.circuit, hw, design.faults, co)
                 .bound_holds()
             ? "holds"
             : "violated";
}

/// The ledger lines of one circuit: "<circuit> <impl|machine> p=<p> ...".
/// Empty on failure (reported on stderr).
std::vector<std::string> ledger_lines(const std::string& name) {
  std::vector<std::string> lines;
  const fsm::Fsm f = benchdata::suite_fsm(name);
  for (const EnumName<core::DiffSemantics>& semantics :
       core::kSemanticsNames) {
    const core::DiffSemantics sem = semantics.value;
    const std::string tag(semantics.name);
    const Result<RunConfig> cfg =
        RunConfig::Builder().semantics(sem).threads(kThreads).build();
    if (!cfg) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(),
                   cfg.status().message.c_str());
      return {};
    }
    const std::vector<int> ps{1, 2, 3};
    const auto reps = ced::run_latency_sweep(f, ps, *cfg);

    const core::PipelineOptions& po = cfg->options();
    const core::Design design = core::derive_design(f, po);
    core::ExtractOptions ex = po.extract;
    ex.latency = kMaxP;
    ex.threads = kThreads;
    const auto tables =
        core::extract_cases_multi(design.circuit, design.faults, ex);

    for (int p = 1; p <= kMaxP; ++p) {
      const core::PipelineReport& rep = reps[static_cast<std::size_t>(p - 1)];
      const core::DetectabilityTable& table =
          tables[static_cast<std::size_t>(p - 1)];
      if (table.truncated || rep.num_cases != table.cases.size()) {
        std::fprintf(stderr,
                     "%s %s p=%d: truncated table or table/report mismatch "
                     "(%zu vs %zu cases)\n",
                     name.c_str(), tag.c_str(), p, rep.num_cases,
                     table.cases.size());
        return {};
      }
      std::string line = name + " " + tag + " p=" + std::to_string(p) +
                         " cases=" + std::to_string(table.cases.size()) +
                         " digest=" + cases_digest(table) +
                         " q=" + std::to_string(rep.num_trees) + " masks=";
      for (std::size_t i = 0; i < rep.parities.size(); ++i) {
        char buf[24];
        std::snprintf(buf, sizeof buf, "%s%llx", i == 0 ? "" : ",",
                      static_cast<unsigned long long>(rep.parities[i]));
        line += buf;
      }
      line += std::string(" bound=") + bound_verdict(design, rep.hw, p);
      char cost[64];
      std::snprintf(cost, sizeof cost, " ced=%zu/%.1f", rep.ced_gates,
                    rep.ced_area);
      line += cost;
      Digest128 hw;
      logic::absorb_netlist(hw, rep.hw.checker);
      line += " hw=" + hw.hex() + " probes=";
      for (std::size_t i = 0; i < rep.algo_stats.qs_tried.size(); ++i) {
        line += (i == 0 ? "" : ",") +
                std::to_string(rep.algo_stats.qs_tried[i]);
      }
      line += " paths=" + std::to_string(table.num_paths) +
              " loops=" + std::to_string(table.num_loop_truncations);
      lines.push_back(std::move(line));
    }
  }
  return lines;
}

/// Key of a ledger line: everything before " cases=".
std::string key_of(const std::string& line) {
  return line.substr(0, line.find(" cases="));
}

}  // namespace

int main(int argc, char** argv) {
  if (!ced::bench::flags_known(argc, argv, "bench_ledger",
                               {"--check=", "--write=", "--quick",
                                "--circuits="})) {
    return 2;
  }
  const std::string check = ced::bench::arg_value(argc, argv, "--check");
  const std::string write = ced::bench::arg_value(argc, argv, "--write");
  if (check.empty() == write.empty()) {
    std::fprintf(stderr,
                 "usage: bench_ledger --check=FILE|--write=FILE "
                 "[--quick | --circuits=a,b]\n");
    return 2;
  }
  const auto circuits = ced::bench::circuits_from_args(argc, argv);

  std::vector<std::string> computed;
  for (const std::string& name : circuits) {
    const auto lines = ledger_lines(name);
    if (lines.empty()) return 1;
    computed.insert(computed.end(), lines.begin(), lines.end());
  }

  if (!write.empty()) {
    std::ofstream out(write);
    out << "# Results ledger (see bench/bench_ledger.cpp). Regenerate:\n"
           "#   build/bench/bench_ledger --write=bench/ledger.txt\n";
    for (const std::string& line : computed) out << line << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", write.c_str());
      return 2;
    }
    std::printf("wrote %zu ledger lines to %s\n", computed.size(),
                write.c_str());
    return 0;
  }

  std::ifstream in(check);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", check.c_str());
    return 2;
  }
  std::map<std::string, std::string> ledger;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') ledger[key_of(line)] = line;
  }
  int mismatches = 0;
  for (const std::string& line : computed) {
    const auto it = ledger.find(key_of(line));
    if (it == ledger.end()) {
      std::printf("MISSING  %s\n", line.c_str());
      ++mismatches;
    } else if (it->second != line) {
      std::printf("DIFFERS  ledger:   %s\n         computed: %s\n",
                  it->second.c_str(), line.c_str());
      ++mismatches;
    }
  }
  std::printf("ledger: %zu lines checked, %d mismatched\n", computed.size(),
              mismatches);
  return mismatches == 0 ? 0 : 1;
}
