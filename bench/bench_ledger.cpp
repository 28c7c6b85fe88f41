// Results ledger: pins what the reproduction produces, so a change that
// should not move results can prove it did not, and prints the paper's
// Table 1 and the §5 claims from what it pins.
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
// Then come whether the degrade threshold strengthened the table
// (strengthened=yes|no) and the campaign's late, silent and false-alarm
// episode counts (late=, silent=, alarms=), which bound= summarizes. Last
// come the simplex pivots the link's Algorithm 1 spent over all its LP
// solves (pivots=), which pin the LP path: every q probe's formulations,
// warm starts and pivots.
// All three run at a fixed 4 threads: without a store, extraction runs
// one shard per thread and divides the degrade threshold among the
// shards, so a strengthened table (s1488 p=3) depends on the thread count.
//
//   bench_ledger --check=bench/ledger.txt [--quick | --circuits=a,b]
//   bench_ledger --write=bench/ledger.txt [--quick | --circuits=a,b]
//   bench_ledger --report=bench/ledger.txt
//
// --check exits 1 when a computed line differs from the ledger or has no
// ledger line; --write replaces the file with the computed lines.
// --report prints Table 1 with the C2 averages, C1, C4 and F1 from a
// ledger's lines. It extracts, solves and simulates nothing: it only
// synthesizes each circuit once, for the original-circuit columns and the
// duplication baseline. EXPERIMENTS.md quotes its blocks verbatim (ctest
// Ledger.ExperimentsReport). A ledger it cannot use (a line missing a
// field, a number that does not parse, a circuit without all six lines)
// exits 2 naming the file and line.

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "benchdata/suite.hpp"
#include "common.hpp"
#include "common/digest.hpp"
#include "core/duplication.hpp"
#include "core/run.hpp"
#include "logic/netlist.hpp"
#include "sim/campaign.hpp"

namespace {

using namespace ced;

constexpr int kMaxP = 3;

std::string cases_digest(const core::DetectabilityTable& table) {
  Digest128 d;
  d.absorb(static_cast<std::uint64_t>(table.cases.size()));
  for (const core::ErroneousCase& ec : table.cases) {
    const int len = ec.length();
    d.absorb(static_cast<std::uint64_t>(len));
    for (int k = 0; k < len; ++k) {
      d.absorb(ec.diff[static_cast<std::size_t>(k)]);
    }
  }
  return d.hex();
}

/// The exhaustive stuck-at campaign of `design` protected by `hw` at
/// bound p.
sim::CampaignReport prove(const core::Design& design,
                          const core::CedHardware& hw, int p) {
  sim::CampaignOptions co;
  co.latency_bound = p;
  co.threads = bench::kLedgerThreads;
  return sim::run_campaign(design.circuit, hw, design.faults, co);
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
    const Result<RunConfig> cfg = RunConfig::Builder()
                                      .semantics(sem)
                                      .threads(bench::kLedgerThreads)
                                      .build();
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
    ex.threads = bench::kLedgerThreads;
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
      const sim::CampaignReport proof = prove(design, rep.hw, p);
      line += proof.bound_holds() ? " bound=holds" : " bound=violated";
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
      line += table.strengthened ? " strengthened=yes" : " strengthened=no";
      line += " late=" + std::to_string(proof.detected_late) +
              " silent=" + std::to_string(proof.silent_escape) +
              " alarms=" + std::to_string(proof.false_alarms);
      line += " pivots=" + std::to_string(rep.algo_stats.lp_iterations);
      lines.push_back(std::move(line));
    }
  }
  return lines;
}

/// Key of a ledger line: everything before " cases=".
std::string key_of(const std::string& line) {
  return line.substr(0, line.find(" cases="));
}

// ---- --report: the paper's views, printed from a ledger ----

/// A ledger --report cannot use; what() is "<file>:<line>: <problem>".
struct BadLedger : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// What --report reads of one ledger line.
struct Entry {
  int q = 0;
  std::size_t ced_gates = 0;
  double ced_area = 0.0;
  bool strengthened = false;
  std::uint64_t late = 0, silent = 0, alarms = 0;
};

/// One circuit of the ledger: its six lines, keyed "<semantics> p=<p>", and
/// what the report derives from its synthesized design.
struct Circuit {
  std::string name;
  std::string where;  ///< "<file>:<line>" of its first ledger line
  std::map<std::string, Entry> lines;
  core::PipelineReport original;  ///< core::fill_design_fields only
  core::DuplicationReport duplication;

  const Entry& at(std::string_view semantics, int p) const {
    return lines.at(std::string(semantics) + " p=" + std::to_string(p));
  }
};

/// The ledger at `path`, grouped by circuit in file order.
std::vector<Circuit> read_ledger(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw BadLedger("cannot read " + path);
  std::vector<Circuit> circuits;
  int line_number = 0;
  for (std::string text; std::getline(in, text);) {
    ++line_number;
    if (text.empty() || text[0] == '#') continue;
    const std::string where = path + ":" + std::to_string(line_number);
    std::istringstream tokens(text);
    std::string name, semantics;
    tokens >> name >> semantics;
    if (!enum_from_name(core::kSemanticsNames, semantics)) {
      throw BadLedger(where + ": '" + semantics + "' is not " +
                      names_joined(core::kSemanticsNames));
    }
    std::map<std::string, std::string, std::less<>> fields;
    for (std::string token; tokens >> token;) {
      const std::size_t eq = token.find('=');
      if (eq != std::string::npos) {
        fields[token.substr(0, eq)] = token.substr(eq + 1);
      }
    }
    const auto field = [&](std::string_view key) -> std::string_view {
      const auto it = fields.find(key);
      if (it == fields.end()) {
        throw BadLedger(where + ": missing field " + std::string(key) + "=");
      }
      return it->second;
    };
    const auto parse = [&](std::string_view key, std::string_view text,
                           auto& out) {
      const char* end = text.data() + text.size();
      const auto [ptr, ec] = std::from_chars(text.data(), end, out);
      if (ec != std::errc() || ptr != end) {
        throw BadLedger(where + ": " + std::string(key) + "=" +
                        std::string(text) + " is not a number");
      }
    };
    int p = 0;
    parse("p", field("p"), p);
    if (p < 1 || p > kMaxP) {
      throw BadLedger(where + ": p=" + std::to_string(p) + " is not 1.." +
                      std::to_string(kMaxP));
    }
    Entry e;
    parse("q", field("q"), e.q);
    const std::string_view ced = field("ced");
    const std::size_t slash = ced.find('/');
    if (slash == std::string_view::npos) {
      throw BadLedger(where + ": ced=" + std::string(ced) +
                      " is not <gates>/<area>");
    }
    parse("ced", ced.substr(0, slash), e.ced_gates);
    parse("ced", ced.substr(slash + 1), e.ced_area);
    const std::string_view strengthened = field("strengthened");
    if (strengthened != "yes" && strengthened != "no") {
      throw BadLedger(where + ": strengthened=" + std::string(strengthened) +
                      " is not yes|no");
    }
    e.strengthened = strengthened == "yes";
    parse("late", field("late"), e.late);
    parse("silent", field("silent"), e.silent);
    parse("alarms", field("alarms"), e.alarms);

    auto it = std::find_if(circuits.begin(), circuits.end(),
                           [&](const Circuit& c) { return c.name == name; });
    if (it == circuits.end()) {
      it = circuits.insert(circuits.end(), Circuit{name, where, {}, {}, {}});
    }
    const std::string key = semantics + " p=" + std::to_string(p);
    if (!it->lines.emplace(key, e).second) {
      throw BadLedger(where + ": a second " + name + " " + key + " line");
    }
  }
  if (circuits.empty()) throw BadLedger(path + ": no ledger lines");
  for (const Circuit& c : circuits) {
    for (const auto& semantics : core::kSemanticsNames) {
      for (int p = 1; p <= kMaxP; ++p) {
        const std::string key =
            std::string(semantics.name) + " p=" + std::to_string(p);
        if (!c.lines.contains(key)) {
          throw BadLedger(c.where + ": " + c.name + " has no " + key +
                          " line");
        }
      }
    }
  }
  return circuits;
}

/// q, marked '*' when the degrade threshold strengthened its table (the
/// cover is valid, possibly with extra trees).
std::string q_cell(const Entry& e) {
  return std::to_string(e.q) + (e.strengthened ? "*" : "");
}

/// Percent reductions of q and of CED cost from machine-level p to p+1.
std::pair<double, double> reductions(const Circuit& c, int p) {
  const Entry& from = c.at("machine", p);
  const Entry& to = c.at("machine", p + 1);
  return {bench::reduction_pct(from.q, to.q),
          bench::reduction_pct(from.ced_area, to.ced_area)};
}

void rule(std::size_t width) {
  std::printf("%s\n", std::string(width, '-').c_str());
}

/// Table 1 and the Claim C2 averages, from the machine-level lines.
void print_table1(const std::vector<Circuit>& circuits) {
  std::printf(
      "Table 1: CED with bounded latency on MCNC-profile benchmark FSMs\n"
      "(machine-level EC semantics, as in the paper's Section 3.1)\n"
      "(* marks the q of a table the degrade threshold strengthened)\n");
  std::printf(
      "%-8s | %3s %3s %3s %5s %7s | %4s %5s %7s | %4s %5s %7s | %4s %5s %7s\n",
      "Circuit", "In", "St", "Out", "Gates", "Cost", "q1", "Gat1", "Cost1",
      "q2", "Gat2", "Cost2", "q3", "Gat3", "Cost3");
  rule(118);
  double tree12 = 0, cost12 = 0, tree23 = 0, cost23 = 0;
  for (const Circuit& c : circuits) {
    const core::PipelineReport& o = c.original;
    std::printf("%-8s | %3d %3d %3d %5zu %7.1f", c.name.c_str(), o.inputs,
                o.state_bits, o.outputs, o.orig_gates, o.orig_area);
    for (int p = 1; p <= kMaxP; ++p) {
      const Entry& e = c.at("machine", p);
      std::printf(" | %4s %4zu %7.1f", q_cell(e).c_str(), e.ced_gates,
                  e.ced_area);
    }
    std::printf("\n");
    const auto [t12, c12] = reductions(c, 1);
    const auto [t23, c23] = reductions(c, 2);
    tree12 += t12;
    cost12 += c12;
    tree23 += t23;
    cost23 += c23;
  }
  const double n = static_cast<double>(circuits.size());
  rule(118);
  std::printf(
      "avg reduction p=1 -> p=2: parity trees %.1f%%, CED cost %.1f%%\n",
      tree12 / n, cost12 / n);
  std::printf(
      "avg reduction p=2 -> p=3: parity trees %.1f%%, CED cost %.1f%%\n",
      tree23 / n, cost23 / n);
}

/// Claim C1: the implementable p=1 schemes against duplicate-and-compare.
void print_c1(const std::vector<Circuit>& circuits) {
  std::printf(
      "Claim C1: duplication baseline vs parity-based CED (latency p = 1)\n");
  std::printf("%-8s | %6s %9s | %6s %9s | %9s %9s\n", "Circuit", "dupFn",
              "dupCost", "q(p=1)", "cedCost", "fnRed%", "costRed%");
  rule(72);
  double fn_red = 0, cost_red = 0;
  for (const Circuit& c : circuits) {
    const core::DuplicationReport& dup = c.duplication;
    const Entry& e = c.at("impl", 1);
    const double fr =
        bench::reduction_pct(static_cast<double>(dup.functions), e.q);
    const double cr = bench::reduction_pct(dup.area, e.ced_area);
    std::printf("%-8s | %6zu %9.1f | %6s %9.1f | %8.1f%% %8.1f%%\n",
                c.name.c_str(), dup.functions, dup.area, q_cell(e).c_str(),
                e.ced_area, fr, cr);
    fn_red += fr;
    cost_red += cr;
  }
  const double n = static_cast<double>(circuits.size());
  rule(72);
  std::printf(
      "average: %.1f%% fewer functions, %.1f%% lower cost than duplication\n",
      fn_red / n, cost_red / n);
}

/// Claim C4: tree-count against cost reductions, machine-level lines.
void print_c4(const std::vector<Circuit>& circuits) {
  std::printf("Claim C4: tree-count reduction vs hardware-cost reduction\n");
  std::printf("%-8s | %9s %9s | %9s %9s | %s\n", "Circuit", "dTree12%",
              "dCost12%", "dTree23%", "dCost23%", "anomaly");
  rule(72);
  int anomalies = 0;
  for (const Circuit& c : circuits) {
    const auto [t12, c12] = reductions(c, 1);
    const auto [t23, c23] = reductions(c, 2);
    // Anomaly: trees went down (or stayed) but the cost went up.
    const bool anomaly = (t12 >= 0 && c12 < 0) || (t23 >= 0 && c23 < 0);
    anomalies += anomaly ? 1 : 0;
    std::printf("%-8s | %8.1f%% %8.1f%% | %8.1f%% %8.1f%% | %s\n",
                c.name.c_str(), t12, c12, t23, c23,
                anomaly ? "cost rose while trees fell" : "-");
  }
  rule(72);
  std::printf(
      "%d circuit(s) show the paper's dk16-style anomaly (cost rose while "
      "trees fell)\n",
      anomalies);
}

/// One campaign cell: "holds", or the late and silent episodes (and the
/// false alarms, when any) that falsify the cover.
std::string verdict(const Entry& e) {
  if (e.late == 0 && e.silent == 0 && e.alarms == 0) return "holds";
  std::string cell = std::to_string(e.late) + " late " +
                     std::to_string(e.silent) + " silent";
  if (e.alarms > 0) cell += " " + std::to_string(e.alarms) + " alarms";
  return cell;
}

/// Finding F1: q(p) under both semantics and the p=2 campaign verdicts.
void print_f1(const std::vector<Circuit>& circuits) {
  std::printf(
      "Finding F1: EC semantics, machine-level (paper) vs implementable\n");
  std::printf("%-8s | %-17s | %-17s | %-20s | %s\n", "", "machine-level q",
              "implementable q", "ML campaign", "IMPL campaign");
  std::printf("%-8s | %5s %5s %5s | %5s %5s %5s | %20s | %20s\n", "Circuit",
              "p=1", "p=2", "p=3", "p=1", "p=2", "p=3", "(p=2)", "(p=2)");
  rule(104);
  int ml_violated = 0, impl_violated = 0;
  for (const Circuit& c : circuits) {
    const std::string ml = verdict(c.at("machine", 2));
    const std::string impl = verdict(c.at("impl", 2));
    ml_violated += ml == "holds" ? 0 : 1;
    impl_violated += impl == "holds" ? 0 : 1;
    std::printf("%-8s", c.name.c_str());
    for (const char* semantics : {"machine", "impl"}) {
      std::printf(" |");
      for (int p = 1; p <= kMaxP; ++p) {
        std::printf(" %5s", q_cell(c.at(semantics, p)).c_str());
      }
    }
    std::printf(" | %20s | %20s\n", ml.c_str(), impl.c_str());
  }
  rule(104);
  std::printf(
      "p=2 covers that miss the bound: machine-level on %d of %zu circuits, "
      "implementable on %d\n",
      ml_violated, circuits.size(), impl_violated);
}

/// --report: the paper's views from the ledger at `path`; exit code.
int report(const std::string& path) {
  std::vector<Circuit> circuits;
  try {
    circuits = read_ledger(path);
    const core::PipelineOptions opts;
    for (Circuit& c : circuits) {
      const fsm::Fsm f = [&] {
        try {
          return benchdata::suite_fsm(c.name);
        } catch (const std::invalid_argument& e) {
          throw BadLedger(c.where + ": " + e.what());
        }
      }();
      const core::Design design = core::derive_design(f, opts);
      core::fill_design_fields(c.original, design, opts.library);
      c.duplication = core::duplication_baseline(design.circuit, opts.library);
    }
  } catch (const BadLedger& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  print_table1(circuits);
  std::printf("\n");
  print_c1(circuits);
  std::printf("\n");
  print_c4(circuits);
  std::printf("\n");
  print_f1(circuits);
  return 0;
}

/// The ledger's modes; the suite flags pick circuits for --check/--write.
constexpr std::string_view kModeFlags[] = {"--check=", "--write=",
                                           "--report="};

int run(int argc, char** argv) {
  ced::cli::reject_unknown_flags(argc, argv, "bench_ledger",
                                 {kModeFlags, ced::bench::kSuiteFlags});
  const auto given = [&](std::string_view flag) {
    return std::any_of(argv + 1, argv + argc, [&](const char* arg) {
      return std::string_view(arg).starts_with(flag);
    });
  };
  const bool report_mode = given("--report=");
  if (given("--check=") + given("--write=") + report_mode != 1 ||
      (report_mode && (given("--quick") || given("--circuits=")))) {
    std::fprintf(stderr,
                 "usage: bench_ledger --check=FILE|--write=FILE "
                 "[--quick | --circuits=a,b]\n"
                 "       bench_ledger --report=FILE\n");
    return 2;
  }
  if (report_mode) {
    return report(ced::cli::arg_value(argc, argv, "--report"));
  }
  const std::string check = ced::cli::arg_value(argc, argv, "--check");
  const std::string write = ced::cli::arg_value(argc, argv, "--write");
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

}  // namespace

int main(int argc, char** argv) {
  return ced::cli::run_main(run, argc, argv);
}
