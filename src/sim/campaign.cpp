#include "sim/campaign.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <unordered_map>

#include "common/digest.hpp"
#include "common/parallel.hpp"
#include "core/erroneous_case.hpp"
#include "core/extract.hpp"
#include "core/rng.hpp"
#include "logic/netlist.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace ced::sim {
namespace {

/// Sentinel for "no path detects within the remaining depth".
constexpr int kNever = 1 << 20;

/// The most upset units one campaign judges, every mask of a 20-bit
/// register: it bounds the unit list's memory and the run's length.
constexpr std::uint64_t kMaxUpsetUnits = (std::uint64_t{1} << 20) - 1;

/// The walk length the key and the report record. No engine reads it (an
/// upset walk ends at detection, reconvergence or the horizon); it stays a
/// fixed word so keys and stored reports keep their bytes.
constexpr int kWalkLengthWord = 96;

void classify_episode(FaultVerdict& v, int first_detection, int bound,
                      int horizon) {
  ++v.activations;
  if (first_detection > horizon) {
    ++v.silent_escape;
    return;
  }
  if (first_detection <= bound) {
    ++v.detected_in_bound;
  } else {
    ++v.detected_late;
  }
  ++v.histogram[static_cast<std::size_t>(first_detection - 1)];
  v.max_latency = std::max(v.max_latency, first_detection);
}

/// Memoized worst-case first-detection search for the exhaustive policy.
/// worst(state, depth) is the maximum over all input paths of the number of
/// further transitions until the checker first fires (>= 1), or kNever when
/// some path survives `depth` transitions undetected. Every search starts
/// one transition after the activation, at age 1 and depth horizon - 1, and
/// each step adds one to the age and takes one from the depth, so the
/// fault's age is horizon - depth and (state, depth) keys the memo: at most
/// states * horizon entries.
struct ExhaustiveSearch {
  FaultSession& session;
  const fsm::FsmCircuit& circuit;
  int persistence = 0;
  int horizon = 0;
  std::unordered_map<std::uint64_t, int> memo;

  int worst(std::uint64_t state, int depth) {
    const std::uint64_t key =
        (state << 6) | static_cast<std::uint64_t>(depth);
    if (const auto it = memo.find(key); it != memo.end()) return it->second;
    const bool active = persistence <= 0 || horizon - depth < persistence;
    const TransitionRow& row =
        active ? session.faulty_row(state) : session.golden_row(state);
    const std::uint64_t num_inputs = row.response.size();
    int worst_val = 0;
    for (std::uint64_t a = 0; a < num_inputs; ++a) {
      int cand;
      if (row.error_at(a)) {
        cand = 1;
      } else if (depth <= 1) {
        cand = kNever;
      } else {
        const int sub =
            worst(circuit.next_state_of(row.response[a]), depth - 1);
        cand = sub >= kNever ? kNever : 1 + sub;
      }
      if (cand > worst_val) worst_val = cand;
      if (worst_val >= kNever) break;
    }
    memo.emplace(key, worst_val);
    return worst_val;
  }
};

FaultVerdict judge_stuck_exhaustive(const ProtectedMachine& pm,
                                    const StuckAtFault& fault,
                                    std::uint64_t unit,
                                    const CampaignOptions& opts, int horizon,
                                    SimCounters& counters) {
  FaultVerdict v;
  v.unit = unit;
  v.histogram.assign(static_cast<std::size_t>(horizon), 0);
  const logic::Injection inj = fault.injection();
  FaultSession session(pm, &inj);
  ExhaustiveSearch search{session, pm.circuit(), opts.persistence, horizon,
                          {}};
  const std::uint64_t num_inputs = pm.num_inputs();

  for (const std::uint64_t c : pm.reachable()) {
    const TransitionRow& faulty = session.faulty_row(c);
    const TransitionRow* golden = pm.golden_row(c);
    if (&faulty == golden) continue;  // the fault is dormant at c
    for (std::uint64_t a = 0; a < num_inputs; ++a) {
      if (faulty.response[a] == golden->response[a]) continue;
      int first;
      if (faulty.error_at(a)) {
        first = 1;
      } else if (horizon <= 1) {
        first = kNever;
      } else {
        const int sub = search.worst(
            pm.circuit().next_state_of(faulty.response[a]), horizon - 1);
        first = sub >= kNever ? kNever : 1 + sub;
      }
      classify_episode(v, first, opts.latency_bound, horizon);
    }
  }
  counters += session.counters();
  return v;
}

FaultVerdict judge_flip_walks(const ProtectedMachine& pm, std::uint64_t mask,
                              std::uint64_t unit_index,
                              const CampaignOptions& opts, int horizon) {
  FaultVerdict v;
  v.unit = mask;
  v.histogram.assign(static_cast<std::size_t>(horizon), 0);
  FaultSession session(pm, nullptr);  // the logic stays fault-free
  const fsm::FsmCircuit& circuit = pm.circuit();
  const std::uint64_t input_mask = pm.num_inputs() - 1;
  const int s = circuit.s();
  const core::Rng unit_rng = core::Rng(opts.seed).stream(unit_index);
  const auto& reach = pm.reachable();

  for (std::size_t si = 0; si < reach.size(); ++si) {
    for (int w = 0; w < opts.walks; ++w) {
      core::Rng rng = unit_rng.stream(
          static_cast<std::uint64_t>(si) *
              static_cast<std::uint64_t>(opts.walks) +
          static_cast<std::uint64_t>(w));
      std::uint64_t golden_state = reach[si];
      std::uint64_t faulty_state = golden_state ^ mask;  // the upset itself
      bool output_diverged = false;
      int detected = 0;
      for (int t = 1; t <= horizon; ++t) {
        const std::uint64_t a = rng.next() & input_mask;
        const TransitionRow& fr = session.golden_row(faulty_state);
        if (fr.error_at(a)) {
          detected = t;
          break;
        }
        const TransitionRow& gr = session.golden_row(golden_state);
        const std::uint64_t fobs = fr.response[a];
        const std::uint64_t gobs = gr.response[a];
        if (((fobs ^ gobs) >> s) != 0) output_diverged = true;
        faulty_state = circuit.next_state_of(fobs);
        golden_state = circuit.next_state_of(gobs);
        if (faulty_state == golden_state) break;  // reconverged
      }
      if (detected > 0) {
        classify_episode(v, detected, opts.latency_bound, horizon);
      } else if (output_diverged || faulty_state != golden_state) {
        // Wrong outputs were produced — or latent state corruption outlived
        // the horizon — and the checker never fired.
        ++v.activations;
        ++v.silent_escape;
      }
      // else: the upset reconverged without ever being observable — benign.
    }
  }
  return v;
}

FaultVerdict judge_unit(const ProtectedMachine& pm,
                        std::span<const StuckAtFault> faults,
                        std::span<const std::uint64_t> units,
                        std::uint64_t unit_index, const CampaignOptions& opts,
                        int horizon, SimCounters& counters) {
  const std::uint64_t unit = units[unit_index];
  if (opts.model == FaultModel::kStuckAt) {
    return judge_stuck_exhaustive(pm, faults[unit_index], unit, opts, horizon,
                                  counters);
  }
  return judge_flip_walks(pm, unit, unit_index, opts, horizon);
}

/// The model's unit list, in canonical order: stuck-at faults as
/// net << 1 | stuck_value (enumerate_stuck_at order), upsets as every mask
/// of 1..flip_bits state bits, ascending. Throws past kMaxUpsetUnits.
std::vector<std::uint64_t> campaign_units(const fsm::FsmCircuit& circuit,
                                          std::span<const StuckAtFault> faults,
                                          const CampaignOptions& opts) {
  std::vector<std::uint64_t> units;
  if (opts.model == FaultModel::kStuckAt) {
    units.reserve(faults.size());
    for (const StuckAtFault& f : faults) {
      units.push_back((static_cast<std::uint64_t>(f.net) << 1) |
                      (f.stuck_value ? 1u : 0u));
    }
    return units;
  }
  // From each mask, step to the next number; while that has too many bits,
  // carry its lowest set bit up. No number skipped has fewer bits, since
  // each keeps every bit of the one it was skipped from.
  for (std::uint64_t mask = 1;
       mask != 0 && static_cast<int>(std::bit_width(mask)) <= circuit.s();) {
    if (units.size() == kMaxUpsetUnits) {
      throw std::invalid_argument(
          "run_campaign: upsets of 1.." + std::to_string(opts.flip_bits) +
          " of " + std::to_string(circuit.s()) +
          " state bits number more than 2^20 - 1");
    }
    units.push_back(mask);
    ++mask;
    while (std::popcount(mask) > opts.flip_bits) mask += mask & (~mask + 1);
  }
  return units;
}

/// A campaign's unit list and the shard count it resolves to.
struct Partition {
  std::vector<std::uint64_t> units;
  int num_shards = 0;
};

/// The partition, after the checks run_campaign and campaign_digest share
/// (std::invalid_argument for malformed options).
Partition partition(const fsm::FsmCircuit& circuit,
                    std::span<const StuckAtFault> faults,
                    const CampaignOptions& opts, const ShardPlan& plan) {
  if (opts.latency_bound < 1 || opts.latency_bound > core::kMaxLatency) {
    throw std::invalid_argument("run_campaign: latency bound out of range");
  }
  const int horizon = resolved_horizon(opts);
  if (horizon < opts.latency_bound || horizon > 62) {
    throw std::invalid_argument(
        "run_campaign: horizon must be in [latency_bound, 62]");
  }
  if (opts.persistence < 0) {
    throw std::invalid_argument("run_campaign: negative persistence");
  }
  if (opts.policy != policy_of(opts.model)) {
    throw std::invalid_argument(
        "run_campaign: stuck-at faults take the exhaustive policy and state "
        "upsets the walks");
  }
  if (opts.model == FaultModel::kStuckAt) {
    if (circuit.s() > 48) {
      throw std::invalid_argument(
          "run_campaign: exhaustive policy needs <= 48 state bits");
    }
  } else {
    if (opts.walks < 1) {
      throw std::invalid_argument("run_campaign: walks must be >= 1");
    }
    if (opts.flip_bits < 1 || opts.flip_bits > circuit.s()) {
      throw std::invalid_argument(
          "run_campaign: flip_bits must be in [1, state bits]");
    }
  }
  if (plan.num_shards < 0 || plan.max_new_shards < 0) {
    throw std::invalid_argument(
        "run_campaign: num_shards and max_new_shards must be >= 0");
  }
  Partition part{campaign_units(circuit, faults, opts)};
  part.num_shards =
      core::resolve_checkpoint_shards(plan.num_shards, part.units.size());
  return part;
}

}  // namespace

const char* to_string(FaultModel m) {
  switch (m) {
    case FaultModel::kStuckAt: return "stuck-at";
    case FaultModel::kTransientFlip: return "transient-flip";
  }
  return "?";
}

const char* to_string(CampaignPolicy p) {
  switch (p) {
    case CampaignPolicy::kExhaustive: return "exhaustive";
    case CampaignPolicy::kRandomWalks: return "walks";
  }
  return "?";
}

int resolved_horizon(const CampaignOptions& opts) {
  return opts.horizon > 0 ? opts.horizon : opts.latency_bound + 2;
}

std::string unit_label(FaultModel model, std::uint64_t unit) {
  if (model == FaultModel::kStuckAt) {
    return StuckAtFault{static_cast<std::uint32_t>(unit >> 1),
                        (unit & 1) != 0}
        .to_string();
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "flip:0x%llx",
                static_cast<unsigned long long>(unit));
  return buf;
}

std::string campaign_digest(const fsm::FsmCircuit& circuit,
                            const core::CedHardware& hw,
                            std::span<const StuckAtFault> faults,
                            const CampaignOptions& opts,
                            const ShardPlan& plan) {
  const int num_shards = partition(circuit, faults, opts, plan).num_shards;
  Digest128 d;
  d.absorb(std::uint64_t{2});  // digest schema version; bump on change
  // Functional circuit: interface, encoding, the reference netlist.
  d.absorb(static_cast<std::uint64_t>(circuit.r()));
  d.absorb(static_cast<std::uint64_t>(circuit.s()));
  d.absorb(static_cast<std::uint64_t>(circuit.o()));
  d.absorb(circuit.enc.reset_code);
  d.absorb(static_cast<std::uint64_t>(circuit.enc.encoding.num_bits));
  for (const std::uint64_t c : circuit.enc.encoding.codes) d.absorb(c);
  logic::absorb_netlist(d, circuit.netlist);
  // Protection hardware: the checker netlist covers every synthesis option
  // that could change observable behaviour (don't-care fill included).
  d.absorb(static_cast<std::uint64_t>(hw.q));
  d.absorb(std::uint64_t{hw.two_rail ? 1u : 0u});
  for (const core::ParityFunc p : hw.parities) d.absorb(p);
  logic::absorb_netlist(d, hw.checker);
  // Fault model.
  d.absorb(faults.size());
  for (const StuckAtFault& f : faults) {
    d.absorb((static_cast<std::uint64_t>(f.net) << 1) |
             (f.stuck_value ? 1u : 0u));
  }
  // Result-shaping campaign options + the shard partition. Budget valves
  // (deadline, threads, max_new_shards) are excluded: truncated results
  // are never cached.
  d.absorb(static_cast<std::uint64_t>(opts.model));
  d.absorb(static_cast<std::uint64_t>(opts.policy));
  d.absorb(static_cast<std::uint64_t>(opts.latency_bound));
  d.absorb(static_cast<std::uint64_t>(resolved_horizon(opts)));
  d.absorb(static_cast<std::uint64_t>(opts.persistence));
  d.absorb(static_cast<std::uint64_t>(opts.flip_bits));
  d.absorb(static_cast<std::uint64_t>(opts.walks));
  d.absorb(static_cast<std::uint64_t>(kWalkLengthWord));
  d.absorb(opts.seed);
  d.absorb(static_cast<std::uint64_t>(num_shards));
  return d.hex();
}

CampaignReport run_campaign(const fsm::FsmCircuit& circuit,
                            const core::CedHardware& hw,
                            std::span<const StuckAtFault> faults,
                            const CampaignOptions& opts,
                            const ShardPlan& plan,
                            const ShardHooks<CampaignShard>& hooks) {
  const Partition part = partition(circuit, faults, opts, plan);
  const std::vector<std::uint64_t>& units = part.units;
  const int horizon = resolved_horizon(opts);

  obs::ScopedSpan span(opts.obs, "campaign");
  span.attr("model", std::string(to_string(opts.model)));
  span.attr("policy", std::string(to_string(opts.policy)));
  const obs::Sinks sinks =
      span.id() != 0 ? opts.obs.under(span.id()) : opts.obs;

  // The serial set-up: one golden pass finds, traces and judges the
  // reachable states.
  obs::ScopedSpan setup_span(sinks, "campaign-setup");
  const ProtectedMachine pm(circuit, hw);
  // The fault-free sweep: the golden rows already hold the checker's
  // verdict for every reachable (state, input), tail bits masked.
  std::uint64_t false_alarms = 0;
  for (const std::uint64_t c : pm.reachable()) {
    for (const std::uint64_t word : pm.golden_row(c)->error) {
      false_alarms += static_cast<std::uint64_t>(std::popcount(word));
    }
  }
  setup_span.attr("states", static_cast<std::uint64_t>(pm.reachable().size()));
  setup_span.end();
  if (sinks.metrics != nullptr) {
    sinks.metrics->set_gauge(kGoldenTraceBytesGauge,
                             static_cast<double>(pm.trace().bytes()));
  }
  span.attr("units", static_cast<std::uint64_t>(units.size()));
  const std::vector<std::size_t> bounds =
      shard_bounds(units.size(), part.num_shards);

  ShardRun<CampaignShard> run(
      plan, part.num_shards, hooks, [&](std::uint32_t s, const CampaignShard& sh) {
        return sh.verdicts.size() == bounds[s + 1] - bounds[s];
      });
  // Workers claim single units across shard boundaries, so no shard's
  // share of the work decides the run's length. Each unit writes its own
  // verdict slot, and its simulator counters when metrics are on; the
  // worker that ends a shard's last unit records the shard's span and
  // metrics.
  std::vector<SimCounters> unit_counters(
      sinks.metrics != nullptr ? units.size() : 0);
  std::vector<obs::Tracer::clock::time_point> shard_start(
      sinks.tracer != nullptr ? bounds.size() - 1 : 0,
      obs::Tracer::clock::now());
  run.compute(
      opts.threads,
      [&](std::uint32_t s, CampaignShard& sh) {
        sh.verdicts.resize(bounds[s + 1] - bounds[s]);
        return sh.verdicts.size();
      },
      [&](std::uint32_t s, std::size_t i, CampaignShard& sh) {
        if (i == 0 && sinks.tracer != nullptr) {
          shard_start[s] = obs::Tracer::clock::now();
        }
        // The deadline is polled at unit boundaries.
        if (opts.deadline.expired()) return false;
        const std::size_t u = bounds[s] + i;
        SimCounters counters;
        sh.verdicts[i] = judge_unit(pm, faults, units, u, opts, horizon,
                                    counters);
        if (sinks.metrics != nullptr) unit_counters[u] = counters;
        return true;
      },
      [&](std::uint32_t s, CampaignShard& sh, bool complete) {
        // A partial shard keeps the units judged before the deadline
        // tripped, in unit order (a judged verdict has a histogram).
        if (!complete) {
          std::erase_if(sh.verdicts, [](const FaultVerdict& v) {
            return v.histogram.empty();
          });
        }
        if (sinks.tracer != nullptr) {
          const std::uint64_t id = sinks.tracer->begin_span(
              "campaign-shard", sinks.parent_span, shard_start[s]);
          sinks.tracer->attr(id, "shard", std::to_string(s));
          sinks.tracer->attr(id, "units", std::to_string(sh.verdicts.size()));
          sinks.tracer->end_span(id);
        }
        obs::MetricsShard ms(sinks.metrics);
        if (!ms.enabled()) return;
        SimCounters sim_counters;
        for (std::size_t u = bounds[s]; u < bounds[s + 1]; ++u) {
          sim_counters += unit_counters[u];
        }
        for (const FaultVerdict& v : sh.verdicts) {
          ms.add("ced_campaign_units_total");
          ms.add("ced_campaign_activations_total", v.activations);
          ms.add("ced_campaign_detected_in_bound_total", v.detected_in_bound);
          ms.add("ced_campaign_detected_late_total", v.detected_late);
          ms.add("ced_campaign_silent_escapes_total", v.silent_escape);
          // One weighted observation per latency bucket, not one per
          // episode.
          for (std::size_t b = 0; b < v.histogram.size(); ++b) {
            if (v.histogram[b] != 0) {
              ms.observe("ced_campaign_latency", static_cast<double>(b + 1),
                         v.histogram[b]);
            }
          }
        }
        sim_counters.for_each(
            [&](const char* name, std::uint64_t n) { ms.add(name, n); });
      });

  // Deterministic merge in fixed shard (= unit) order. Partial shards
  // contribute their completed units; skipped shards contribute nothing
  // and are reported through the truncation flag.
  CampaignReport rep;
  rep.model = opts.model;
  rep.policy = opts.policy;
  rep.latency_bound = opts.latency_bound;
  rep.horizon = horizon;
  rep.persistence = opts.persistence;
  rep.flip_bits = opts.flip_bits;
  rep.walks = opts.walks;
  rep.walk_length = kWalkLengthWord;
  rep.seed = opts.seed;
  rep.num_units = units.size();
  rep.false_alarms = false_alarms;
  rep.histogram.assign(static_cast<std::size_t>(horizon), 0);
  for (CampaignShard& sh : run.take()) {
    for (FaultVerdict& v : sh.verdicts) {
      rep.activations += v.activations;
      rep.detected_in_bound += v.detected_in_bound;
      rep.detected_late += v.detected_late;
      rep.silent_escape += v.silent_escape;
      if (v.benign()) ++rep.benign_units;
      rep.max_latency = std::max(rep.max_latency, v.max_latency);
      for (std::size_t b = 0; b < v.histogram.size(); ++b) {
        rep.histogram[b] += v.histogram[b];
      }
      rep.verdicts.push_back(std::move(v));
    }
  }
  if (run.partial() > 0) {
    rep.truncated = true;
    rep.truncation_reason =
        "campaign deadline expired; verdicts cover the units completed "
        "(completed shards are checkpointed — resume to finish)";
  }
  if (run.skipped() > 0) {
    rep.truncated = true;
    rep.truncation_reason =
        "max_new_shards valve: " + std::to_string(run.skipped()) +
        " shard(s) skipped; resume to finish";
  }
  return rep;
}

std::string campaign_report_json(const CampaignReport& report,
                                 const std::string& circuit_label,
                                 double wall_seconds, int threads) {
  std::string j = "{";
  const auto str = [&](const char* key, const std::string& value) {
    j += "\"";
    j += key;
    j += "\":\"" + obs::json_escape(value) + "\",";
  };
  const auto num = [&](const char* key, std::uint64_t value) {
    j += "\"";
    j += key;
    j += "\":" + std::to_string(value) + ",";
  };
  const auto boolean = [&](const char* key, bool value) {
    j += "\"";
    j += key;
    j += value ? "\":true," : "\":false,";
  };
  str("circuit", circuit_label);
  str("model", to_string(report.model));
  str("policy", to_string(report.policy));
  num("latency_bound", static_cast<std::uint64_t>(report.latency_bound));
  num("horizon", static_cast<std::uint64_t>(report.horizon));
  num("persistence", static_cast<std::uint64_t>(report.persistence));
  num("flip_bits", static_cast<std::uint64_t>(report.flip_bits));
  num("walks", static_cast<std::uint64_t>(report.walks));
  num("walk_length", static_cast<std::uint64_t>(report.walk_length));
  str("seed", std::to_string(report.seed));
  num("num_units", report.num_units);
  num("units_judged", report.verdicts.size());
  num("activations", report.activations);
  num("detected_in_bound", report.detected_in_bound);
  num("detected_late", report.detected_late);
  num("silent_escape", report.silent_escape);
  num("benign_units", report.benign_units);
  num("false_alarms", report.false_alarms);
  num("max_latency", static_cast<std::uint64_t>(report.max_latency));
  boolean("hard_guarantee", report.hard_guarantee());
  boolean("bound_holds", report.bound_holds());
  boolean("truncated", report.truncated);
  str("truncation_reason", report.truncation_reason);
  j += "\"histogram\":[";
  for (std::size_t b = 0; b < report.histogram.size(); ++b) {
    if (b != 0) j += ",";
    j += std::to_string(report.histogram[b]);
  }
  j += "],";
  j += "\"wall_seconds\":" + obs::json_number(wall_seconds) + ",";
  j += "\"threads\":" + std::to_string(threads) + "}";
  return j;
}

}  // namespace ced::sim
