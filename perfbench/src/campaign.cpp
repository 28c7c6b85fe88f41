// The campaign workload: exhaustive stuck-at sim::run_campaign on s1488 and
// s298 at p=2. Set-up protects both circuits and synthesizes their CED
// logic; every pass then proves the bound over every bounded path.

#include "bench.hpp"
#include "sim/campaign.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace ced;

namespace {

constexpr int kBound = 2;

/// Output checks on one campaign: a complete hard-guarantee run with no
/// late or silent episode.
void check_campaign(Outcome& out, std::size_t op, const std::string& name,
                    const sim::CampaignReport& rep) {
  if (rep.truncated) out.fail(op, name + ": campaign truncated");
  if (!rep.hard_guarantee() || !rep.bound_holds()) {
    out.fail(op, name + ": bound violated (" +
                     std::to_string(rep.detected_late) + " late, " +
                     std::to_string(rep.silent_escape) + " silent)");
  }
}

}  // namespace

Outcome run_campaign_workload(const Config& cfg) {
  Outcome out;
  const std::vector<Machine> machines = named_machines(
      cfg, cfg.smoke ? std::vector<std::string>{"dk14", "tav"}
                     : std::vector<std::string>{"s1488", "s298"});
  const Result<RunConfig> rc =
      RunConfig::Builder().latency(kBound).threads(kThreads).build();
  obs::Tracer log(kSpanCapacity);
  LayerCounts counts;

  // Set-up: protect each circuit at p=2 and synthesize its CED logic (the
  // layered calls, traced in a traced run).
  const int ps[] = {kBound};
  const auto t_setup = std::chrono::steady_clock::now();
  std::vector<LayeredSweep> designs;
  for (std::size_t i = 0; i < machines.size(); ++i) {
    designs.push_back(layered_sweep(machines[i].fsm, ps, *rc, nullptr,
                                    cfg.trace ? &log : nullptr, i + 1,
                                    &counts));
  }
  const double setup_s = seconds_since(t_setup);
  for (std::size_t i = 0; i < machines.size(); ++i) {
    const LayeredSweep& d = designs[i];
    if (!d.error.empty()) {
      out.problem("set-up " + machines[i].name + ": " + d.error);
      return out;
    }
    const Scheme& s = d.schemes.front();
    if (!scalar_covers_all(s.parities, d.tables.back())) {
      out.problem(machines[i].name + ": a case escapes the scheme");
    }
    if (cfg.trace && !condense_probe(d, log, counts)) {
      out.problem(machines[i].name + ": condense_table disagrees with the "
                  "solver's condensed_cases");
    }
  }

  sim::CampaignOptions co;
  co.model = sim::FaultModel::kStuckAt;
  co.policy = sim::CampaignPolicy::kExhaustive;
  co.latency_bound = kBound;
  co.threads = kThreads;

  // Timed passes, three at least: an operation's time is its fastest over
  // them, and two samples were not enough when the host slowed for a whole
  // run.
  std::vector<OpSample> ops;
  std::vector<std::uint64_t> activations(machines.size(), 0);
  run_passes(cfg, 3, [&](std::size_t) {
    for (std::size_t i = 0; i < machines.size(); ++i) {
      const LayeredSweep& d = designs[i];
      const std::size_t id = out.op();
      sim::CampaignReport rep;
      timed_op(ops, machines[i].name,
               [&] { rep = sim::run_campaign(d.circuit, d.hw, d.faults, co); });
      check_campaign(out, id, machines[i].name, rep);
      if (activations[i] != 0 && activations[i] != rep.activations) {
        out.fail(id, machines[i].name + ": activations differ between passes");
      }
      activations[i] = rep.activations;
      const Scheme& s = d.schemes.front();
      out.observed_pins["campaign/" + machines[i].name + "/p2"] =
          "q=" + std::to_string(s.parities.size()) +
          " masks=" + mask_digest(s.parities) +
          " units=" + std::to_string(rep.num_units) +
          " activations=" + std::to_string(rep.activations);
    }
  });
  check_pins(cfg, out);

  if (!cfg.trace) {
    report_end_to_end(cfg, out, setup_s, ops);
    return out;
  }
  // Traced pass, right after the untraced one (a traced run makes one): the
  // same run_campaign calls, so the two pass times differ only by the
  // tracing.
  const auto t_traced = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < machines.size(); ++i) {
    const LayeredSweep& d = designs[i];
    const std::size_t id = out.op();
    const obs::ScopedSpan root = layer_span(&log, "op", 0, 100 + i);
    sim::CampaignReport rep;
    {
      const obs::ScopedSpan s =
          layer_span(&log, "campaign", root.id(), 100 + i);
      rep = sim::run_campaign(d.circuit, d.hw, d.faults, co);
    }
    check_campaign(out, id, machines[i].name, rep);
    counts.campaign_units += rep.num_units;
    counts.campaign_activations += rep.activations;
    counts.campaign_max_latency =
        std::max(counts.campaign_max_latency, rep.max_latency);
  }
  counts.layers.insert("campaign");
  const double traced_s = seconds_since(t_traced);
  sim_probe(cfg, log, counts);
  std::map<std::string, Metric> layers = layer_metrics(counts, log);
  merge_missing_layers(layers, probe_missing_layers(cfg, counts.layers, out));
  report_traced(cfg, out, log, std::move(layers),
                fastest_pass_seconds(ops), traced_s);
  return out;
}

}  // namespace perfbench
