// The serve probe of traced runs: an in-process serve::Server on a unix
// socket (fresh store, 2 workers, 1 thread per request) driven by kThreads
// client connections in a closed loop across 2 tenants. Most requests
// re-protect a stored machine (warm); 8% send a machine never seen before
// (cold), a quarter of those from two clients at once (in-flight dedup).

#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "benchdata/generator.hpp"
#include "benchdata/suite.hpp"
#include "kiss/kiss.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace ced;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kLatency = 2;
constexpr const char* kProfiles[] = {"dk14", "s386", "tav"};

enum class Cls { kWarm, kCold };

/// One position of the request schedule.
struct Slot {
  Cls cls = Cls::kWarm;
  std::uint64_t machine = 0;  ///< pool index (warm) or cold-machine index
  bool twin = false;          ///< second request for the previous cold one
};

struct Traffic {
  int warm_pool = 4;
  std::size_t block = 250;  ///< schedule slots with the same mix
};

benchdata::SyntheticSpec profile_spec(const std::string& name) {
  for (const auto& e : benchdata::mcnc_suite()) {
    if (e.name == name) return e.spec;
  }
  return {};
}

/// Warm-pool machine j: a dk14/s386/tav profile. At seed 0 the first three
/// are the committed profiles; the rest mix the seed into the generator.
std::string pool_kiss(std::uint64_t seed, std::uint64_t j) {
  benchdata::SyntheticSpec spec = profile_spec(kProfiles[j % 3]);
  if (seed != 0 || j >= 3) spec.seed = mix(mix(seed ^ 0x9001) + j);
  return benchdata::generate_kiss(spec);
}

/// Cold machine k: never stored before the request that sends it; all are
/// dk14-sized.
std::string cold_kiss(std::uint64_t seed, std::uint64_t k) {
  benchdata::SyntheticSpec spec = profile_spec("dk14");
  spec.seed = mix(mix(seed ^ 0xc01d) + k);
  return benchdata::generate_kiss(spec);
}

fsm::Fsm fsm_of(const std::string& kiss_text) {
  return fsm::Fsm::from_kiss(*kiss::try_parse(kiss_text));
}

/// Every block of `t.block` slots holds the same mix in a seeded order: 8%
/// cold slots of which a quarter are twins placed right after their first
/// request, and warm slots for the rest.
std::vector<Slot> make_schedule(std::uint64_t seed, std::size_t n,
                                const Traffic& t) {
  const std::size_t cold_slots = t.block * 8 / 100;
  const std::size_t twins = cold_slots / 4;
  std::vector<Slot> out;
  out.reserve(n + t.block);
  std::uint64_t s = mix(seed ^ 0x5c4ed);
  std::uint64_t next_cold = 0;
  while (out.size() < n) {
    // Units of one or two slots: a twin rides with its first request.
    std::vector<std::vector<Slot>> units;
    for (std::size_t k = 0; k < cold_slots - twins; ++k) {
      const std::uint64_t m = next_cold++;
      units.push_back({{Cls::kCold, m, false}});
      if (k < twins) units.back().push_back({Cls::kCold, m, true});
    }
    for (std::size_t used = cold_slots; used < t.block; ++used) {
      s = mix(s);
      units.push_back({{Cls::kWarm, s % static_cast<std::uint64_t>(t.warm_pool),
                        false}});
    }
    for (std::size_t i = units.size(); i > 1; --i) {
      s = mix(s);
      std::swap(units[i - 1], units[s % i]);
    }
    for (const std::vector<Slot>& u : units) {
      out.insert(out.end(), u.begin(), u.end());
    }
  }
  out.resize(n);
  return out;
}

struct Record {
  std::size_t index = 0;
  Slot slot;
  double rtt_ms = 0;
  bool transport_ok = false;
  std::string transport_error;
  serve::Response resp;
};

/// A running server plus the warm pool its set-up stored.
struct Rig {
  std::string socket;
  std::unique_ptr<serve::Server> server;
  std::vector<std::string> pool;
};

serve::Request protect_request(const std::string& kiss_text, std::size_t i) {
  serve::Request req;
  req.op = "protect";
  req.id = std::to_string(i);
  req.tenant = i % 2 == 0 ? "tenant-a" : "tenant-b";
  req.kiss = kiss_text;
  req.latency = kLatency;
  return req;
}

/// Set-up in a fresh directory `name`: the server starts and the warm pool
/// is protected through it.
Rig start_rig(const Config& cfg, const Traffic& t, const std::string& name,
              Outcome& out) {
  Rig rig;
  const std::string dir = cfg.work_dir + "/" + name;
  std::filesystem::create_directories(dir);
  rig.socket = dir + "/sock";
  serve::ServerOptions so;
  so.unix_socket = rig.socket;
  so.workers = 2;
  so.threads_per_request = 1;
  so.store_dir = dir + "/store";
  rig.server = std::make_unique<serve::Server>(so);
  if (const Status st = rig.server->start(); !st.ok()) {
    out.problem("set-up: server did not start: " + st.to_text());
    rig.server.reset();
    return rig;
  }
  for (int j = 0; j < t.warm_pool; ++j) {
    rig.pool.push_back(pool_kiss(cfg.seed, static_cast<std::uint64_t>(j)));
  }
  std::atomic<std::size_t> next{0};
  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kThreads; ++c) {
    clients.emplace_back([&] {
      serve::ClientOptions co;
      co.unix_socket = rig.socket;
      serve::Client client(co);
      for (std::size_t j = next++; j < rig.pool.size(); j = next++) {
        const auto r = client.call(protect_request(rig.pool[j], j));
        if (!r || r->code != serve::Code::kOk) ++bad;
      }
    });
  }
  for (std::thread& c : clients) c.join();
  if (bad > 0) out.problem("set-up: warm-pool protect failed");
  return rig;
}

std::uint64_t counter(serve::Server& server, const char* name) {
  const obs::MetricsSnapshot snap = server.metrics().snapshot();
  const auto it = snap.counters.find(name);
  return it != snap.counters.end() ? it->second : 0;
}

struct ServerCounts {
  std::uint64_t warm_hits, cold_misses, dedup_joins, overload_rejections;
};

ServerCounts server_counts(serve::Server& s) {
  return {counter(s, "ced_serve_warm_hits_total"),
          counter(s, "ced_serve_cold_misses_total"),
          counter(s, "ced_serve_dedup_joins_total"),
          counter(s, "ced_serve_overload_rejections_total")};
}

struct Loop {
  std::vector<Record> records;
  std::uint64_t retries = 0;
};

/// The closed loop over every slot of `schedule`: kThreads clients each
/// send their next request as soon as the previous reply arrives. Each
/// round trip is a "serve.request" span in `log`.
Loop closed_loop(const Config& cfg, const Rig& rig,
                 const std::vector<Slot>& schedule, obs::Tracer& log) {
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> retries{0};
  std::vector<std::vector<Record>> per_client(kThreads);
  std::vector<std::thread> clients;
  for (int c = 0; c < kThreads; ++c) {
    clients.emplace_back([&, c] {
      serve::ClientOptions co;
      co.unix_socket = rig.socket;
      co.sleep = [&](double ms) {
        ++retries;
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(ms));
      };
      serve::Client client(co);
      for (std::size_t i = next++; i < schedule.size(); i = next++) {
        Record rec;
        rec.index = i;
        rec.slot = schedule[i];
        const std::string kiss_text =
            rec.slot.cls == Cls::kWarm ? rig.pool[rec.slot.machine]
                                       : cold_kiss(cfg.seed, rec.slot.machine);
        const serve::Request req = protect_request(kiss_text, i);
        const auto t_req = Clock::now();
        const Result<serve::Response> r = client.call(req);
        const auto done = Clock::now();
        rec.rtt_ms =
            std::chrono::duration<double, std::milli>(done - t_req).count();
        rec.transport_ok = static_cast<bool>(r);
        if (r) {
          rec.resp = *r;
        } else {
          rec.transport_error = r.status().to_text();
        }
        const std::uint64_t span = log.begin_span("serve.request", 0, t_req);
        log.attr(span, "op", std::to_string(i + 1));
        log.end_span(span, done);
        per_client[c].push_back(std::move(rec));
      }
    });
  }
  for (std::thread& c : clients) c.join();
  Loop loop;
  loop.retries = retries.load();
  for (auto& v : per_client) {
    for (Record& r : v) loop.records.push_back(std::move(r));
  }
  std::sort(loop.records.begin(), loop.records.end(),
            [](const Record& a, const Record& b) { return a.index < b.index; });
  return loop;
}

/// Direct ced::run_pipeline q of every machine the records name.
void check_records(const Config& cfg, const Rig& rig, const Loop& loop,
                   Outcome& out) {
  std::vector<std::string> kisses;  // distinct machines, by first use
  std::map<std::pair<int, std::uint64_t>, std::size_t> index;
  std::vector<std::size_t> machine_of(loop.records.size());
  for (std::size_t r = 0; r < loop.records.size(); ++r) {
    const Slot& s = loop.records[r].slot;
    const auto key = std::make_pair(static_cast<int>(s.cls), s.machine);
    auto it = index.find(key);
    if (it == index.end()) {
      it = index.emplace(key, kisses.size()).first;
      kisses.push_back(s.cls == Cls::kWarm ? rig.pool[s.machine]
                                           : cold_kiss(cfg.seed, s.machine));
    }
    machine_of[r] = it->second;
  }
  std::vector<int> direct_q(kisses.size(), -1);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  const Result<RunConfig> rc =
      RunConfig::Builder().latency(kLatency).threads(1).build();
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&] {
      for (std::size_t k = next++; k < kisses.size(); k = next++) {
        const core::PipelineReport rep = ced::run_pipeline(fsm_of(kisses[k]), *rc);
        direct_q[k] = rep.num_trees;
      }
    });
  }
  for (std::thread& w : workers) w.join();

  for (std::size_t r = 0; r < loop.records.size(); ++r) {
    const Record& rec = loop.records[r];
    const std::size_t id = out.op();
    const std::string what = "request " + std::to_string(rec.index);
    if (!rec.transport_ok) {
      out.fail(id, what + ": " + rec.transport_error);
      continue;
    }
    if (rec.resp.code != serve::Code::kOk) {
      out.fail(id, what + ": " + serve::to_string(rec.resp.code) + " " +
                       rec.resp.error);
      continue;
    }
    if (rec.slot.cls == Cls::kWarm && !rec.resp.cached) {
      out.fail(id, what + ": warm reply not cached");
    }
    if (rec.slot.cls == Cls::kCold && !rec.slot.twin && rec.resp.cached) {
      out.fail(id, what + ": a new machine was served from the cache");
    }
    const int q = direct_q[machine_of[r]];
    if (rec.resp.q != q) {
      out.fail(id, what + ": q=" + std::to_string(rec.resp.q) +
                       ", direct run_pipeline gives " + std::to_string(q));
    }
  }
}

/// Serve-layer counters of a traced loop.
void count_serve_layer(const Loop& loop, const ServerCounts& before,
                       const ServerCounts& after, LayerCounts& counts) {
  counts.layers.insert("serve");
  for (const Record& r : loop.records) {
    counts.serve_overhead_ms.push_back(
        r.rtt_ms - 1e3 * (r.resp.t_extract_s + r.resp.t_solve_s));
    counts.serve_extract_s += r.resp.t_extract_s;
    counts.serve_solve_s += r.resp.t_solve_s;
  }
  counts.serve_warm_hits += after.warm_hits - before.warm_hits;
  counts.serve_cold_misses += after.cold_misses - before.cold_misses;
  counts.serve_dedup_joins += after.dedup_joins - before.dedup_joins;
  counts.serve_overload_rejections +=
      after.overload_rejections - before.overload_rejections;
  counts.serve_client_retries += loop.retries;
}

}  // namespace

std::map<std::string, Metric> serve_probe(const Config& cfg, Outcome& out) {
  const Traffic t;
  Rig rig = start_rig(cfg, t, "serve", out);
  if (rig.server == nullptr) return {};
  // Enough round trips for the overhead's p99 to have kTailSamples beyond it.
  const std::vector<Slot> schedule =
      make_schedule(cfg.seed, samples_needed(0.99), t);
  obs::Tracer log(kSpanCapacity);
  LayerCounts counts;
  const ServerCounts before = server_counts(*rig.server);
  const Loop loop = closed_loop(cfg, rig, schedule, log);
  count_serve_layer(loop, before, server_counts(*rig.server), counts);
  check_records(cfg, rig, loop, out);
  rig.server->drain();
  return layer_metrics(counts, log);
}

}  // namespace perfbench
