// ced_serve — the long-running protection daemon (DESIGN.md §12).
//
//   ced_serve [--socket=PATH] [--tcp-port=N] [--metrics-port=N]
//             [--store=DIR] [--workers=N] [--queue-depth=N]
//             [--threads-per-request=N] [--checkpoint-shards=N]
//             [--degrade-on-overload] [--degraded-budget-seconds=F]
//             [--default-deadline-seconds=F] [--drain-grace-seconds=F]
//             [--chaos-job-delay-ms=N] [--chaos-shard-delay-ms=N]
//
// At least one of --socket / --tcp-port is required (--tcp-port=0 picks an
// ephemeral port; same for --metrics-port=0). Once the listeners are up
// the daemon prints exactly one machine-parsable line to stdout:
//
//   READY tcp=<port|-> metrics=<port|-> socket=<path|->
//
// and serves until SIGTERM or SIGINT, upon which it drains gracefully
// (stop accepting, let in-flight work finish within the grace period or
// checkpoint, answer queued requests with kDraining, flush manifests) and
// exits 0. kill -9 is the tested crash path: a restart with the same
// --store resumes cold extractions from their checkpoint shards.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>

#include "flags.hpp"
#include "serve/server.hpp"

namespace {

using namespace ced::cli;

std::atomic<bool> g_shutdown{false};

extern "C" void on_shutdown_signal(int) {
  g_shutdown.store(true, std::memory_order_relaxed);
}

/// The flags ced_serve reads.
constexpr std::string_view kFlags[] = {
    "--socket=", "--tcp-port=", "--metrics-port=", "--store=", "--workers=",
    "--queue-depth=", "--threads-per-request=", "--checkpoint-shards=",
    "--degrade-on-overload", "--degraded-budget-seconds=",
    "--default-deadline-seconds=", "--drain-grace-seconds=",
    "--chaos-job-delay-ms=", "--chaos-shard-delay-ms="};

int usage() {
  std::fprintf(
      stderr,
      "usage: ced_serve [--socket=PATH] [--tcp-port=N] [--metrics-port=N]\n"
      "                 [--store=DIR] [--workers=N] [--queue-depth=N]\n"
      "                 [--threads-per-request=N] [--checkpoint-shards=N]\n"
      "                 [--degrade-on-overload] [--degraded-budget-seconds=F]\n"
      "                 [--default-deadline-seconds=F] "
      "[--drain-grace-seconds=F]\n"
      "                 [--chaos-job-delay-ms=N] [--chaos-shard-delay-ms=N]\n"
      "at least one of --socket / --tcp-port is required "
      "(--tcp-port=0 = ephemeral)\n");
  return 2;
}

int serve(int argc, char** argv) {
  if (has_flag(argc, argv, "--help")) return usage();
  // Every flag is read and checked before a listener binds or a worker
  // starts.
  reject_unknown_flags(argc, argv, "ced_serve", {kFlags});
  ced::serve::ServerOptions opts;
  opts.unix_socket = arg_value(argc, argv, "--socket");
  opts.tcp_port = numeric_flag(argc, argv, "--tcp-port", -1);
  opts.metrics_port = numeric_flag(argc, argv, "--metrics-port", -1);
  opts.store_dir = arg_value(argc, argv, "--store");
  opts.workers = numeric_flag(argc, argv, "--workers", 2);
  opts.queue_depth = numeric_flag(argc, argv, "--queue-depth", 16);
  opts.threads_per_request =
      numeric_flag(argc, argv, "--threads-per-request", 1);
  opts.checkpoint_shards = numeric_flag(argc, argv, "--checkpoint-shards", 0);
  opts.degrade_on_overload = has_flag(argc, argv, "--degrade-on-overload");
  opts.degraded_budget_s =
      numeric_flag(argc, argv, "--degraded-budget-seconds", 0.5);
  opts.default_deadline_s =
      numeric_flag(argc, argv, "--default-deadline-seconds", 0.0);
  opts.drain_grace_s = numeric_flag(argc, argv, "--drain-grace-seconds", 5.0);
  opts.chaos_job_delay_ms = numeric_flag(argc, argv, "--chaos-job-delay-ms", 0);
  opts.chaos_shard_delay_ms =
      numeric_flag(argc, argv, "--chaos-shard-delay-ms", 0);
  if (opts.unix_socket.empty() && opts.tcp_port < 0) return usage();

  // Signals before start(): a supervisor that SIGTERMs immediately after
  // fork must still get a drain, not the default kill.
  struct sigaction sa = {};
  sa.sa_handler = on_shutdown_signal;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  ced::serve::Server server(opts);
  const ced::Status st = server.start();
  if (!st.ok()) {
    std::fprintf(stderr, "ced_serve: %s\n", st.to_text().c_str());
    return 1;
  }

  std::printf("READY tcp=%s metrics=%s socket=%s\n",
              server.tcp_port() >= 0 ? std::to_string(server.tcp_port()).c_str()
                                     : "-",
              server.metrics_port() >= 0
                  ? std::to_string(server.metrics_port()).c_str()
                  : "-",
              opts.unix_socket.empty() ? "-" : opts.unix_socket.c_str());
  std::fflush(stdout);

  while (!g_shutdown.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "ced_serve: draining\n");
  server.drain();
  std::fprintf(stderr, "ced_serve: drained, exiting\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run_main(serve, argc, argv); }
