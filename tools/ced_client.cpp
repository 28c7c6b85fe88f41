// ced_client — command-line client and load generator for ced_serve.
//
//   ced_client protect <machine.kiss|-> (--socket=PATH | --tcp-port=N)
//              [--latency=N] [--solver=lp|greedy]
//              [--encoding=binary|gray|onehot|spread] [--semantics=impl|machine]
//              [--deadline-ms=N] [--tenant=S] [--id=S] [--seed=N]
//              [--request-seed=N] [--retries=N] [--json]
//   ced_client verify <machine.kiss|->  ... same endpoint/shape flags ...
//   ced_client sweep  <machine.kiss|-> --latencies=1,2,3 ...
//   ced_client health  (--socket=PATH | --tcp-port=N)
//   ced_client metrics (--socket=PATH | --tcp-port=N)
//   ced_client loadgen (--socket=PATH | --tcp-port=N) [--out=FILE]
//              [--concurrency=1,4,8] [--requests=8] [--states=12]
//              [--latency=N] [--tenant-per-thread]
//
// All requests go through the resilient retry path (capped exponential
// backoff with decorrelated jitter, honoring the daemon's retry-after
// hints), so a briefly overloaded or restarting daemon is survivable
// without any caller-side logic.
//
// `loadgen` is the latency benchmark behind BENCH_serve.json: for each
// concurrency level it generates a fresh set of synthetic machines, runs a
// COLD pass (every request misses the cache and runs the pipeline) and
// then a WARM pass (same machines again: every request must be served from
// the store), recording p50/p95/p99 for both. Daemon metrics are scraped
// before and after the warm pass to *prove* warm hits never ran
// extraction (the cold-miss counter must not move).
//
// Exit codes mirror ced_cli: 0 ok, 1 degraded, 2 invalid input,
// 3 transport/internal failure.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "benchdata/generator.hpp"
#include "flags.hpp"
#include "serve/client.hpp"

namespace {

using namespace ced;
using namespace ced::cli;
using namespace ced::serve;

constexpr int kExitOk = 0;
constexpr int kExitDegraded = 1;
constexpr int kExitInvalidInput = 2;
constexpr int kExitInternal = 3;

/// Read by every subcommand (endpoint_from_args).
constexpr std::string_view kEndpointFlags[] = {"--socket=", "--tcp-port=",
                                               "--retries=", "--seed="};
/// Read by the one-request subcommands (run_simple, request_from_args).
constexpr std::string_view kRequestFlags[] = {
    "--id=", "--tenant=", "--latency=", "--solver=", "--encoding=",
    "--semantics=", "--deadline-ms=", "--request-seed=", "--latencies=",
    "--json"};
/// Read by loadgen.
constexpr std::string_view kLoadgenFlags[] = {
    "--out=", "--concurrency=", "--requests=", "--states=", "--latency=",
    "--tenant-per-thread"};

int usage() {
  std::fprintf(stderr,
               "usage: ced_client protect|verify|sweep <machine.kiss|-> "
               "(--socket=PATH | --tcp-port=N) [flags]\n"
               "       ced_client health|metrics (--socket=PATH | "
               "--tcp-port=N)\n"
               "       ced_client loadgen (--socket=PATH | --tcp-port=N) "
               "[--out=FILE] [--concurrency=1,4,8] [--requests=8]\n"
               "see the header of tools/ced_client.cpp for the full list\n");
  return kExitInvalidInput;
}

ClientOptions endpoint_from_args(int argc, char** argv) {
  ClientOptions copts;
  copts.unix_socket = arg_value(argc, argv, "--socket");
  copts.tcp_port = numeric_flag(argc, argv, "--tcp-port", -1);
  copts.retry.max_attempts =
      std::max(1, numeric_flag(argc, argv, "--retries", 5));
  copts.seed = numeric_flag<std::uint64_t>(argc, argv, "--seed", 0) | 1;
  return copts;
}

std::string read_machine(const std::string& path) {
  std::ostringstream ss;
  if (path == "-") {
    ss << std::cin.rdbuf();
  } else {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
      std::exit(kExitInvalidInput);
    }
    ss << in.rdbuf();
  }
  return ss.str();
}

/// The comma-separated numbers a list flag spells (`fallback` when the
/// flag is absent); each must parse whole (parse_number).
std::vector<int> int_list_flag(int argc, char** argv, const char* key,
                               const char* fallback) {
  std::vector<int> out;
  std::stringstream ss(arg_value(argc, argv, key, fallback));
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(parse_number<int>(key, item));
  }
  return out;
}

Request request_from_args(int argc, char** argv, const std::string& op) {
  Request req;
  req.op = op;
  req.id = arg_value(argc, argv, "--id");
  req.tenant = arg_value(argc, argv, "--tenant");
  req.latency = numeric_flag(argc, argv, "--latency", 2);
  req.solver = arg_value(argc, argv, "--solver", "lp");
  req.encoding = arg_value(argc, argv, "--encoding", "binary");
  req.semantics = arg_value(argc, argv, "--semantics", "impl");
  req.deadline_ms = numeric_flag(argc, argv, "--deadline-ms", 0.0);
  req.seed = numeric_flag<std::uint64_t>(argc, argv, "--request-seed", 0);
  req.latencies = int_list_flag(argc, argv, "--latencies", "");
  return req;
}

int exit_code_for(Code code) {
  switch (code) {
    case Code::kOk: return kExitOk;
    case Code::kDegraded: return kExitDegraded;
    case Code::kInvalidInput:
    case Code::kNotFound: return kExitInvalidInput;
    case Code::kOverloaded:
    case Code::kDraining:
    case Code::kInternal: break;
  }
  return kExitInternal;
}

void print_response(const Response& resp) {
  std::printf("status: %s\n", to_string(resp.code));
  if (!resp.error.empty()) std::printf("error: %s\n", resp.error.c_str());
  if (resp.code == Code::kOk || resp.code == Code::kDegraded) {
    if (!resp.sweep.empty()) {
      for (const SweepEntry& e : resp.sweep) {
        std::printf("p=%d -> q=%d%s\n", e.latency, e.q,
                    e.degraded ? " (degraded)" : "");
      }
    } else if (resp.q > 0 || !resp.parities.empty()) {
      std::printf("latency bound p=%d -> q=%d parity trees%s%s%s\n",
                  resp.latency, resp.q, resp.cached ? " [cached]" : "",
                  resp.deduped ? " [deduped]" : "",
                  resp.degraded ? " [degraded]" : "");
      for (std::size_t i = 0; i < resp.parities.size(); ++i) {
        std::printf("  tree %zu: mask 0x%llx\n", i,
                    static_cast<unsigned long long>(resp.parities[i]));
      }
    }
    if (resp.activations > 0 || resp.violations > 0) {
      std::printf("verification: %llu activations, %llu violations -> %s\n",
                  static_cast<unsigned long long>(resp.activations),
                  static_cast<unsigned long long>(resp.violations),
                  resp.violations == 0 ? "OK" : "FAILED");
    }
    if (!resp.state.empty()) {
      std::printf("state=%s workers=%d queued=%d active=%d\n",
                  resp.state.c_str(), resp.workers, resp.queued, resp.active);
    }
    if (!resp.prometheus.empty()) std::fputs(resp.prometheus.c_str(), stdout);
  }
}

int run_simple(int argc, char** argv, const std::string& op,
               bool needs_machine) {
  if (needs_machine && argc < 3) return usage();
  reject_unknown_flags(argc, argv, "ced_client " + op,
                       {kEndpointFlags, kRequestFlags});
  const ClientOptions copts = endpoint_from_args(argc, argv);
  Request req = request_from_args(argc, argv, op);
  Client client(copts);
  if (needs_machine) req.kiss = read_machine(argv[2]);
  if (op == "sweep" && req.latencies.empty()) {
    std::fprintf(stderr, "error: sweep needs --latencies=1,2,...\n");
    return kExitInvalidInput;
  }
  const Result<Response> resp = client.call(req);
  if (!resp) {
    std::fprintf(stderr, "error: %s\n", resp.status().to_text().c_str());
    return resp.status().code == StatusCode::kInvalidInput ? kExitInvalidInput
                                                           : kExitInternal;
  }
  if (has_flag(argc, argv, "--json")) {
    std::printf("%s\n", encode_response(*resp).c_str());
  } else {
    print_response(*resp);
  }
  return exit_code_for(resp->code);
}

// ------------------------------------------------------------- loadgen

double percentile(std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const std::size_t idx = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(sorted_ms.size()) - 1,
                       p / 100.0 * static_cast<double>(sorted_ms.size())));
  return sorted_ms[idx];
}

/// Scrapes one counter from a Prometheus text payload (0 when absent —
/// registries only materialize counters that have been touched).
double scrape_counter(const std::string& prom, const std::string& name) {
  std::stringstream ss(prom);
  std::string line;
  while (std::getline(ss, line)) {
    if (line.rfind(name, 0) == 0 && line.size() > name.size() &&
        (line[name.size()] == ' ' || line[name.size()] == '{')) {
      const std::size_t sp = line.find_last_of(' ');
      if (sp != std::string::npos) return std::atof(line.c_str() + sp + 1);
    }
  }
  return 0.0;
}

struct PhaseStats {
  std::string phase;
  int concurrency = 0;
  int requests = 0;
  int errors = 0;
  int cached = 0;
  int degraded = 0;
  double p50 = 0, p95 = 0, p99 = 0, mean = 0;
};

PhaseStats run_phase(const ClientOptions& copts, const std::string& phase,
                     int concurrency, const std::vector<std::string>& machines,
                     int latency, bool tenant_per_thread) {
  PhaseStats stats;
  stats.phase = phase;
  stats.concurrency = concurrency;
  stats.requests = static_cast<int>(machines.size());
  std::mutex mu;
  std::vector<double> lat_ms;
  std::vector<std::thread> threads;
  std::atomic<std::size_t> next{0};
  for (int t = 0; t < concurrency; ++t) {
    threads.emplace_back([&, t] {
      Client client(copts);
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= machines.size()) break;
        Request req;
        req.op = "protect";
        req.kiss = machines[i];
        req.latency = latency;
        req.id = phase + "-" + std::to_string(i);
        if (tenant_per_thread) req.tenant = "t" + std::to_string(t);
        const auto t0 = std::chrono::steady_clock::now();
        const Result<Response> resp = client.call(req);
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        std::lock_guard<std::mutex> lock(mu);
        lat_ms.push_back(ms);
        if (!resp || (resp->code != Code::kOk &&
                      resp->code != Code::kDegraded)) {
          ++stats.errors;
        } else {
          if (resp->cached) ++stats.cached;
          if (resp->degraded) ++stats.degraded;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  std::sort(lat_ms.begin(), lat_ms.end());
  double sum = 0;
  for (const double v : lat_ms) sum += v;
  stats.mean = lat_ms.empty() ? 0 : sum / static_cast<double>(lat_ms.size());
  stats.p50 = percentile(lat_ms, 50);
  stats.p95 = percentile(lat_ms, 95);
  stats.p99 = percentile(lat_ms, 99);
  return stats;
}

int cmd_loadgen(int argc, char** argv) {
  reject_unknown_flags(argc, argv, "ced_client loadgen",
                       {kEndpointFlags, kLoadgenFlags});
  const ClientOptions copts = endpoint_from_args(argc, argv);
  const std::vector<int> levels =
      int_list_flag(argc, argv, "--concurrency", "1,4,8");
  const int per_level = std::max(1, numeric_flag(argc, argv, "--requests", 8));
  const int states = numeric_flag(argc, argv, "--states", 12);
  const int latency = numeric_flag(argc, argv, "--latency", 2);
  const std::string out_path = arg_value(argc, argv, "--out");
  const bool tenant_per_thread = has_flag(argc, argv, "--tenant-per-thread");
  if (levels.empty()) return usage();

  const auto scrape = [&]() -> std::string {
    Client client(copts);
    Request req;
    req.op = "metrics";
    const Result<Response> resp = client.call(req);
    return resp ? resp->prometheus : std::string();
  };

  std::vector<PhaseStats> all;
  double warm_phase_cold_misses = 0;
  int level_index = 0;
  for (const int conc : levels) {
    if (conc <= 0) continue;
    // Fresh machines per level: this level's cold pass is genuinely cold.
    std::vector<std::string> machines;
    for (int i = 0; i < per_level; ++i) {
      benchdata::SyntheticSpec spec;
      spec.states = states;
      spec.seed = 1000003ull * static_cast<unsigned long long>(level_index) +
                  static_cast<unsigned long long>(i) + 1;
      machines.push_back(benchdata::generate_kiss(spec));
    }
    PhaseStats cold = run_phase(copts, "cold", conc, machines, latency,
                                tenant_per_thread);
    const std::string before = scrape();
    PhaseStats warm = run_phase(copts, "warm", conc, machines, latency,
                                tenant_per_thread);
    const std::string after = scrape();
    // The proof that warm hits skip extraction: the daemon's cold-miss
    // counter may not move across the warm pass.
    warm_phase_cold_misses +=
        scrape_counter(after, "ced_serve_cold_misses_total") -
        scrape_counter(before, "ced_serve_cold_misses_total");
    std::printf(
        "conc=%d cold: p50=%.1fms p95=%.1fms p99=%.1fms (cached %d/%d)\n"
        "conc=%d warm: p50=%.1fms p95=%.1fms p99=%.1fms (cached %d/%d)\n",
        conc, cold.p50, cold.p95, cold.p99, cold.cached, cold.requests, conc,
        warm.p50, warm.p95, warm.p99, warm.cached, warm.requests);
    all.push_back(std::move(cold));
    all.push_back(std::move(warm));
    ++level_index;
  }

  std::ostringstream json;
  json << "{\n  \"bench\": \"serve\",\n  \"requests_per_level\": " << per_level
       << ",\n  \"machine_states\": " << states
       << ",\n  \"warm_phase_cold_misses\": " << warm_phase_cold_misses
       << ",\n  \"levels\": [\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const PhaseStats& s = all[i];
    json << "    {\"phase\": \"" << s.phase
         << "\", \"concurrency\": " << s.concurrency
         << ", \"requests\": " << s.requests << ", \"errors\": " << s.errors
         << ", \"cached\": " << s.cached << ", \"degraded\": " << s.degraded
         << ", \"p50_ms\": " << s.p50 << ", \"p95_ms\": " << s.p95
         << ", \"p99_ms\": " << s.p99 << ", \"mean_ms\": " << s.mean << "}"
         << (i + 1 < all.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary);
    out << json.str();
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fputs(json.str().c_str(), stdout);
  }

  int errors = 0;
  for (const PhaseStats& s : all) errors += s.errors;
  if (warm_phase_cold_misses > 0) {
    std::fprintf(stderr,
                 "loadgen: FAIL — %d cold misses during warm passes (warm "
                 "hits must never run extraction)\n",
                 static_cast<int>(warm_phase_cold_misses));
    return kExitDegraded;
  }
  return errors == 0 ? kExitOk : kExitDegraded;
}

int client_main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "protect" || cmd == "verify" || cmd == "sweep") {
    return run_simple(argc, argv, cmd, /*needs_machine=*/true);
  }
  if (cmd == "health" || cmd == "metrics") {
    return run_simple(argc, argv, cmd, /*needs_machine=*/false);
  }
  if (cmd == "loadgen") return cmd_loadgen(argc, argv);
  return usage();
}

}  // namespace

int main(int argc, char** argv) { return run_main(client_main, argc, argv); }
