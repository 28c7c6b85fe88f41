#pragma once

// The ced_serve daemon core: a long-running protection service over the
// existing pipeline, engineered so its own failure behavior is a tested
// property (ISSUE 6 / DESIGN.md §12).
//
//   - Admission control: a bounded worker pool fed by a FIFO-per-tenant
//     queue drained round-robin across tenants. When the queue is full the
//     daemon answers a structured kOverloaded with a retry-after hint
//     (never unbounded queueing); with `degrade_on_overload` it instead
//     serves overflow from the cheap greedy/duplication-floor cascade
//     under a strict wall budget, flagged `degraded`.
//   - Deadlines: a per-request `deadline_ms` becomes the run's
//     RunBudget.wall_seconds, so the existing cooperative valves enforce
//     it inside every stage loop.
//   - Dedup & caching: identical requests (same machine bytes + same
//     result-shaping config, budget excluded) coalesce onto one in-flight
//     run; with a store bound, warm hits serve the persisted scheme
//     without running extraction at all, and cold misses run
//     shard-checkpointed extraction with resume on — so a kill -9 mid-run
//     plus restart completes from checkpoints, byte-identical.
//   - Graceful drain: stop accepting, give in-flight work a grace period,
//     then trip every run's interrupt valve so it checkpoints; queued
//     requests get kDraining; manifests are flushed; drain() returns only
//     when every thread has exited.
//
// The Server object is fully in-process (the tests run it on an ephemeral
// unix socket inside a tempdir); tools/ced_serve.cpp adds the process
// scaffolding (flags, signals, pidfile-free systemd-style lifecycle).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "storage/store.hpp"

namespace ced::serve {

struct ServerOptions {
  /// Unix-domain listener path ("" = none). An existing socket file is
  /// replaced (the daemon assumes ownership of the path).
  std::string unix_socket;
  /// TCP listener on 127.0.0.1 (-1 = off, 0 = ephemeral port; see
  /// tcp_port() for the resolved value).
  int tcp_port = -1;
  /// Plain-HTTP listener on 127.0.0.1 serving GET /metrics (Prometheus
  /// text) and /healthz (-1 = off, 0 = ephemeral).
  int metrics_port = -1;

  /// Worker pool size (cold pipeline runs execute here).
  int workers = 2;
  /// Max requests waiting for a worker, across all tenants. Beyond this,
  /// admission rejects (kOverloaded) or degrades, never queues.
  int queue_depth = 16;
  /// Pipeline threads per job. Workers already provide inter-request
  /// parallelism; 1 keeps one job on one core.
  int threads_per_request = 1;

  /// Artifact store directory ("" = stateless: no warm cache, no
  /// checkpoints, no manifests).
  std::string store_dir;
  /// Checkpoint shard partition for cold extraction (0 = default 16).
  int checkpoint_shards = 0;

  /// Serve queue overflow from the degraded cascade (greedy solver under
  /// `degraded_budget_s`) instead of rejecting. Bounded: at most
  /// 2*workers such runs in flight, beyond which kOverloaded applies.
  bool degrade_on_overload = false;
  double degraded_budget_s = 0.5;

  /// Wall budget applied when a request carries no deadline_ms
  /// (0 = unlimited).
  double default_deadline_s = 0.0;
  /// How long drain() lets in-flight work run before tripping the
  /// interrupt valve (checkpoint-and-return).
  double drain_grace_s = 5.0;

  /// Chaos/test hooks (0 = off): injected latency before each job body
  /// and per checkpoint-shard persist. They widen race windows the chaos
  /// harness aims at (kill -9 mid-extraction, queue saturation) without
  /// needing a machine large enough to be naturally slow.
  int chaos_job_delay_ms = 0;
  int chaos_shard_delay_ms = 0;
};

class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds listeners and starts the accept/worker threads. kInvalidInput
  /// when no listener is configured or a bind fails.
  Status start();

  /// Graceful shutdown; see class comment. Idempotent, blocks until every
  /// thread has exited. After drain() the object can only be destroyed.
  void drain();

  bool running() const { return running_.load(std::memory_order_acquire); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Resolved listener endpoints (valid after start()).
  int tcp_port() const { return resolved_tcp_port_; }
  int metrics_port() const { return resolved_metrics_port_; }

  /// The daemon's metrics registry (shared with every pipeline run's obs
  /// sinks and the /metrics endpoint).
  obs::MetricsRegistry& metrics() { return registry_; }

 private:
  struct InFlight {
    Request req;
    std::string key;
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Response resp;
  };

  // Listener plumbing.
  Status bind_listeners();
  void accept_loop(int listen_fd);
  void metrics_http_loop();
  void conn_loop(int fd);
  void close_all_connections();

  // Admission + execution.
  Response handle_request(Request req);
  Response admit_and_wait(Request req);
  std::shared_ptr<InFlight> pop_next_job_locked();
  void worker_loop();
  void finish(const std::shared_ptr<InFlight>& flight, Response resp);
  Response execute(const Request& req, bool degraded_mode);
  Response run_protect(const Request& req, bool degraded_mode);
  Response run_sweep(const Request& req, bool degraded_mode);
  Response run_verify(const Request& req);
  Response health_response();
  std::string dedup_key(const Request& req) const;
  double overload_retry_hint_locked() const;

  ServerOptions opts_;
  obs::MetricsRegistry registry_;

  std::unique_ptr<storage::ArtifactStore> store_;

  // Listeners: fds + the self-pipe that wakes accept loops for drain.
  std::vector<int> listen_fds_;
  int metrics_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  int resolved_tcp_port_ = -1;
  int resolved_metrics_port_ = -1;

  std::vector<std::thread> accept_threads_;
  std::thread metrics_thread_;
  std::vector<std::thread> worker_threads_;

  // Open connections (for forced shutdown on drain) and their threads.
  std::mutex conn_mu_;
  std::unordered_set<int> conn_fds_;
  std::vector<std::thread> conn_threads_;

  // Admission state. tenant_q_ holds queued-not-yet-running flights;
  // rr_ is the round-robin rotation of tenants with nonempty queues;
  // in_flight_ spans queued AND running jobs (the dedup window).
  std::mutex adm_mu_;
  std::condition_variable work_cv_;
  std::map<std::string, std::deque<std::shared_ptr<InFlight>>> tenant_q_;
  std::deque<std::string> rr_;
  std::unordered_map<std::string, std::shared_ptr<InFlight>> in_flight_;
  int queued_ = 0;
  int active_ = 0;
  int degraded_inline_ = 0;
  bool stop_workers_ = false;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> drain_trip_{false};  ///< RunBudget.interrupt target
  std::atomic<bool> drained_{false};
};

}  // namespace ced::serve
