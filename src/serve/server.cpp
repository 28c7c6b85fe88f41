#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/digest.hpp"
#include "core/run.hpp"
#include "kiss/kiss.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "sim/campaign.hpp"

namespace ced::serve {

namespace {

using namespace std::chrono_literals;

core::SolverKind solver_kind(const std::string& s) {
  if (s == "greedy") return core::SolverKind::kGreedy;
  if (s == "exact") return core::SolverKind::kExact;
  return core::SolverKind::kLpRounding;
}

fsm::EncodingKind encoding_kind(const std::string& s) {
  if (s == "gray") return fsm::EncodingKind::kGray;
  if (s == "onehot") return fsm::EncodingKind::kOneHot;
  if (s == "spread") return fsm::EncodingKind::kSpread;
  return fsm::EncodingKind::kBinary;
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Chaos hook: a delegating archive that sleeps per persisted checkpoint
/// shard, stretching cold extraction so the harness can reliably kill the
/// daemon mid-request on machines of any size.
class DelayingArchive final : public core::ExtractArchive {
 public:
  DelayingArchive(core::ExtractArchive& inner, int delay_ms)
      : inner_(inner), delay_ms_(delay_ms) {}

  std::vector<core::DetectabilityTable> load_tables(
      const std::string& key) override {
    return inner_.load_tables(key);
  }
  void store_tables(
      const std::string& key,
      const std::vector<core::DetectabilityTable>& tables) override {
    inner_.store_tables(key, tables);
  }
  ShardHooks<core::ExtractShard> shard_hooks(const std::string& key) override {
    ShardHooks<core::ExtractShard> hooks = inner_.shard_hooks(key);
    hooks.save = [save = std::move(hooks.save),
                  delay_ms = delay_ms_](const core::ExtractShard& shard) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      save(shard);
    };
    return hooks;
  }
  void drop_shards(const std::string& key) override {
    inner_.drop_shards(key);
  }
  std::vector<std::string> drain_events() override {
    return inner_.drain_events();
  }

 private:
  core::ExtractArchive& inner_;
  int delay_ms_;
};

}  // namespace

Server::Server(ServerOptions opts) : opts_(std::move(opts)) {
  opts_.workers = std::max(1, opts_.workers);
  opts_.queue_depth = std::max(1, opts_.queue_depth);
  opts_.threads_per_request = std::max(1, opts_.threads_per_request);
  registry_.define_histogram("ced_serve_request_seconds",
                             {0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 60.0});
  if (!opts_.store_dir.empty()) {
    store_ = std::make_unique<storage::ArtifactStore>(opts_.store_dir);
    store_->set_sinks(obs::Sinks{nullptr, &registry_, 0});
  }
}

Server::~Server() {
  if (running()) drain();
}

// ----------------------------------------------------------- listeners

namespace {

int make_unix_listener(const std::string& path, Status& st) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    st = Status::invalid_input(Stage::kParse,
                               "unix socket path too long: " + path);
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    st = Status::internal(Stage::kParse,
                          std::string("socket: ") + std::strerror(errno));
    return -1;
  }
  ::unlink(path.c_str());  // daemon owns the path; stale files are replaced
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    st = Status::internal(Stage::kParse, "bind/listen on " + path + ": " +
                                             std::strerror(errno));
    ::close(fd);
    return -1;
  }
  return fd;
}

int make_tcp_listener(int port, int& resolved_port, Status& st) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    st = Status::internal(Stage::kParse,
                          std::string("socket: ") + std::strerror(errno));
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    st = Status::internal(Stage::kParse,
                          "bind/listen on 127.0.0.1:" + std::to_string(port) +
                              ": " + std::strerror(errno));
    ::close(fd);
    return -1;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    resolved_port = ntohs(bound.sin_port);
  }
  return fd;
}

}  // namespace

Status Server::bind_listeners() {
  Status st = Status::make_ok();
  if (!opts_.unix_socket.empty()) {
    const int fd = make_unix_listener(opts_.unix_socket, st);
    if (fd < 0) return st;
    listen_fds_.push_back(fd);
  }
  if (opts_.tcp_port >= 0) {
    const int fd = make_tcp_listener(opts_.tcp_port, resolved_tcp_port_, st);
    if (fd < 0) return st;
    listen_fds_.push_back(fd);
  }
  if (listen_fds_.empty()) {
    return Status::invalid_input(
        Stage::kParse, "no listener configured (need unix_socket or tcp_port)");
  }
  if (opts_.metrics_port >= 0) {
    metrics_fd_ =
        make_tcp_listener(opts_.metrics_port, resolved_metrics_port_, st);
    if (metrics_fd_ < 0) return st;
  }
  return Status::make_ok();
}

Status Server::start() {
  if (running()) {
    return Status::invalid_input(Stage::kParse, "server already started");
  }
  Status st = bind_listeners();
  if (!st.ok()) return st;
  if (::pipe(wake_pipe_) != 0) {
    return Status::internal(Stage::kParse,
                            std::string("pipe: ") + std::strerror(errno));
  }
  running_.store(true, std::memory_order_release);
  for (const int fd : listen_fds_) {
    accept_threads_.emplace_back([this, fd] { accept_loop(fd); });
  }
  if (metrics_fd_ >= 0) {
    metrics_thread_ = std::thread([this] { metrics_http_loop(); });
  }
  for (int w = 0; w < opts_.workers; ++w) {
    worker_threads_.emplace_back([this] { worker_loop(); });
  }
  return Status::make_ok();
}

void Server::accept_loop(int listen_fd) {
  for (;;) {
    pollfd fds[2] = {{listen_fd, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if ((fds[1].revents & POLLIN) != 0) return;  // drain woke us
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listener closed under us
    }
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (draining()) {
      ::close(fd);
      continue;
    }
    conn_fds_.insert(fd);
    conn_threads_.emplace_back([this, fd] { conn_loop(fd); });
  }
}

void Server::metrics_http_loop() {
  for (;;) {
    pollfd fds[2] = {{metrics_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if ((fds[1].revents & POLLIN) != 0) return;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(metrics_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;
    }
    // One short-lived scrape per connection, handled inline: read the
    // request head (bounded, 2s cap), answer, close.
    timeval tv{2, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    std::string head;
    char buf[1024];
    while (head.size() < 8192 && head.find("\r\n\r\n") == std::string::npos) {
      const ::ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
      if (r <= 0) break;
      head.append(buf, static_cast<std::size_t>(r));
    }
    std::string body, status_line = "HTTP/1.1 200 OK";
    std::string content_type = "text/plain; version=0.0.4; charset=utf-8";
    if (head.rfind("GET /metrics", 0) == 0) {
      body = obs::prometheus_text(registry_.snapshot());
    } else if (head.rfind("GET /healthz", 0) == 0) {
      if (draining()) {
        status_line = "HTTP/1.1 503 Service Unavailable";
        body = "draining\n";
      } else {
        body = "ok\n";
      }
    } else {
      status_line = "HTTP/1.1 404 Not Found";
      body = "not found\n";
    }
    std::string resp = status_line + "\r\nContent-Type: " + content_type +
                       "\r\nContent-Length: " + std::to_string(body.size()) +
                       "\r\nConnection: close\r\n\r\n" + body;
    std::size_t sent = 0;
    while (sent < resp.size()) {
#ifdef MSG_NOSIGNAL
      const ::ssize_t r =
          ::send(fd, resp.data() + sent, resp.size() - sent, MSG_NOSIGNAL);
#else
      const ::ssize_t r = ::send(fd, resp.data() + sent, resp.size() - sent, 0);
#endif
      if (r <= 0) break;
      sent += static_cast<std::size_t>(r);
    }
    ::close(fd);
  }
}

void Server::conn_loop(int fd) {
  std::string payload;
  for (;;) {
    const FrameStatus fs = read_frame(fd, payload, opts_.max_frame_bytes);
    if (fs == FrameStatus::kClosed) break;
    if (fs == FrameStatus::kTorn) {
      registry_.add("ced_serve_torn_frames_total");
      break;
    }
    if (fs == FrameStatus::kTooLarge) {
      // The stream is no longer frame-aligned: answer once, then close.
      registry_.add("ced_serve_invalid_frames_total");
      write_frame(fd, encode_response(error_response(
                          Code::kInvalidInput,
                          "frame length prefix exceeds limit (" +
                              std::to_string(opts_.max_frame_bytes) +
                              " bytes) or is zero")));
      break;
    }
    Response resp;
    auto doc = Json::parse(payload);
    if (!doc) {
      registry_.add("ced_serve_invalid_frames_total");
      resp = error_response(Code::kInvalidInput, doc.status().message);
    } else {
      auto req = parse_request(*doc);
      if (!req) {
        registry_.add("ced_serve_invalid_frames_total");
        resp = error_response(Code::kInvalidInput, req.status().message);
      } else {
        resp = handle_request(std::move(*req));
      }
    }
    if (!write_frame(fd, encode_response(resp)).ok()) break;
  }
  {
    // Deregister before closing: once close() returns, accept() may hand
    // the same fd number to a new connection, and erasing afterwards
    // would drop *that* connection's registration — close_all_connections
    // would then never wake its handler and drain() would join forever.
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn_fds_.erase(fd);
  }
  ::close(fd);
}

void Server::close_all_connections() {
  std::lock_guard<std::mutex> lock(conn_mu_);
  for (const int fd : conn_fds_) {
    // Read side only: wakes a conn_loop blocked in read_frame (recv
    // returns 0) without cutting off a response it is still writing —
    // a drained request must receive its answer, not an EOF.
    ::shutdown(fd, SHUT_RD);
  }
}

// ------------------------------------------------------------ admission

Response Server::handle_request(Request req) {
  registry_.add("ced_serve_requests_total");
  const auto started = std::chrono::steady_clock::now();
  Response resp;
  if (req.op == "health") {
    resp = health_response();
    resp.id = req.id;
  } else if (req.op == "metrics") {
    resp.id = req.id;
    resp.code = Code::kOk;
    resp.prometheus = obs::prometheus_text(registry_.snapshot());
  } else {
    resp = admit_and_wait(std::move(req));
  }
  registry_.observe(
      "ced_serve_request_seconds",
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count());
  return resp;
}

std::string Server::dedup_key(const Request& req) const {
  // Identity = machine bytes + every result-shaping knob. The per-request
  // deadline is deliberately excluded (it shapes *timing*, not the ideal
  // answer); a shared result can still report degraded=true, which the
  // response surfaces to every waiter.
  Digest128 d;
  d.absorb(std::string_view(req.op));
  d.absorb(std::string_view(req.kiss));
  d.absorb(static_cast<std::uint64_t>(req.latency));
  d.absorb(static_cast<std::uint64_t>(req.latencies.size()));
  for (const int p : req.latencies) d.absorb(static_cast<std::uint64_t>(p));
  d.absorb(std::string_view(req.solver));
  d.absorb(std::string_view(req.encoding));
  d.absorb(std::string_view(req.semantics));
  d.absorb(req.seed);
  return d.hex();
}

double Server::overload_retry_hint_locked() const {
  // Rough service-time guess: the deeper the backlog per worker, the
  // longer the suggested backoff. Deliberately coarse — the client jitters
  // on top of it.
  return 100.0 * (1.0 + static_cast<double>(queued_) /
                            static_cast<double>(opts_.workers));
}

Response Server::admit_and_wait(Request req) {
  const std::string key = dedup_key(req);
  std::shared_ptr<InFlight> flight;
  bool leader = false;
  {
    std::unique_lock<std::mutex> lock(adm_mu_);
    if (draining()) {
      registry_.add("ced_serve_drain_rejections_total");
      return error_response(Code::kDraining, "daemon is draining", req.id,
                            500.0);
    }
    auto it = in_flight_.find(key);
    if (it != in_flight_.end()) {
      flight = it->second;
      registry_.add("ced_serve_dedup_joins_total");
    } else if (queued_ >= opts_.queue_depth) {
      if (opts_.degrade_on_overload &&
          degraded_inline_ < 2 * opts_.workers) {
        ++degraded_inline_;
        lock.unlock();
        registry_.add("ced_serve_degraded_mode_total");
        Response resp = execute(req, /*degraded_mode=*/true);
        resp.id = req.id;
        std::lock_guard<std::mutex> relock(adm_mu_);
        --degraded_inline_;
        return resp;
      }
      registry_.add("ced_serve_overload_rejections_total");
      return error_response(
          Code::kOverloaded,
          "admission queue full (" + std::to_string(queued_) + " waiting)",
          req.id, overload_retry_hint_locked());
    } else {
      flight = std::make_shared<InFlight>();
      flight->req = req;
      flight->key = key;
      in_flight_[key] = flight;
      auto& lane = tenant_q_[req.tenant];
      if (lane.empty()) rr_.push_back(req.tenant);
      lane.push_back(flight);
      ++queued_;
      leader = true;
      work_cv_.notify_one();
    }
  }
  std::unique_lock<std::mutex> flock(flight->mu);
  flight->cv.wait(flock, [&] { return flight->done; });
  Response resp = flight->resp;
  resp.id = req.id;
  resp.deduped = !leader;
  return resp;
}

std::shared_ptr<Server::InFlight> Server::pop_next_job_locked() {
  // Fair scheduling: rotate through tenants with queued work, taking the
  // oldest request of each (FIFO within a tenant, round-robin across).
  while (!rr_.empty()) {
    const std::string tenant = rr_.front();
    rr_.pop_front();
    auto it = tenant_q_.find(tenant);
    if (it == tenant_q_.end() || it->second.empty()) continue;
    auto flight = it->second.front();
    it->second.pop_front();
    if (!it->second.empty()) {
      rr_.push_back(tenant);
    } else {
      tenant_q_.erase(it);
    }
    return flight;
  }
  return nullptr;
}

void Server::worker_loop() {
  for (;;) {
    std::shared_ptr<InFlight> flight;
    bool answer_draining = false;
    {
      std::unique_lock<std::mutex> lock(adm_mu_);
      work_cv_.wait(lock, [&] { return stop_workers_ || queued_ > 0; });
      flight = pop_next_job_locked();
      if (flight == nullptr) {
        if (stop_workers_) return;
        continue;
      }
      --queued_;
      answer_draining = draining();
      if (!answer_draining) ++active_;
    }
    if (answer_draining) {
      // Queued work at drain time is not started: the client retries
      // against a live instance instead of waiting out a doomed run.
      registry_.add("ced_serve_drain_rejections_total");
      finish(flight, error_response(Code::kDraining,
                                    "daemon drained before this request ran",
                                    flight->req.id, 500.0));
      continue;
    }
    Response resp = execute(flight->req, /*degraded_mode=*/false);
    {
      std::lock_guard<std::mutex> lock(adm_mu_);
      --active_;
    }
    finish(flight, std::move(resp));
  }
}

void Server::finish(const std::shared_ptr<InFlight>& flight, Response resp) {
  {
    std::lock_guard<std::mutex> lock(adm_mu_);
    auto it = in_flight_.find(flight->key);
    if (it != in_flight_.end() && it->second == flight) in_flight_.erase(it);
  }
  std::lock_guard<std::mutex> flock(flight->mu);
  flight->resp = std::move(resp);
  flight->done = true;
  flight->cv.notify_all();
}

// ------------------------------------------------------------ execution

Response Server::execute(const Request& req, bool degraded_mode) {
  if (opts_.chaos_job_delay_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(opts_.chaos_job_delay_ms));
  }
  try {
    if (req.op == "verify") return run_verify(req);
    if (req.op == "sweep") return run_sweep(req, degraded_mode);
    return run_protect(req, degraded_mode);
  } catch (const std::exception& e) {
    registry_.add("ced_serve_internal_errors_total");
    return error_response(Code::kInternal, e.what(), req.id);
  }
}

namespace {

/// Parses the request's machine or reports kInvalidInput.
Result<fsm::Fsm> parse_machine(const Request& req) {
  const Result<kiss::Kiss2> parsed = kiss::try_parse(req.kiss);
  if (!parsed) return parsed.status();
  try {
    return fsm::Fsm::from_kiss(*parsed);
  } catch (const std::exception& e) {
    return Status::invalid_input(Stage::kParse,
                                 std::string("invalid machine: ") + e.what());
  }
}

Code code_for(const core::ResilienceReport& res) {
  switch (res.status.code) {
    case StatusCode::kInvalidInput: return Code::kInvalidInput;
    case StatusCode::kInternal:
    case StatusCode::kInfeasible: return Code::kInternal;
    default: break;
  }
  return res.degraded() ? Code::kDegraded : Code::kOk;
}

/// Worker threads for one request: the request's own count clamped to the
/// server's per-request cap. Pinned ambiently by the pipeline for the
/// duration of this run only, so concurrent requests with different
/// thread counts never observe each other.
int request_threads(const Request& req, int threads_cap) {
  return req.threads > 0 ? std::min(req.threads, threads_cap) : threads_cap;
}

/// The result-shaping part of a protect or verify request's configuration.
/// Both ops build it here, so a verify looks a scheme up under the key its
/// protect filed it under.
RunConfig::Builder request_shape(const Request& req, core::SolverKind solver,
                                 int checkpoint_shards) {
  RunConfig::Builder b;
  b.latency(req.latency)
      .solver(solver)
      .encoding(encoding_kind(req.encoding))
      .checkpoint_shards(checkpoint_shards);
  if (req.semantics == "machine") {
    b.semantics(core::DiffSemantics::kMachineLevel);
  }
  if (req.seed != 0) b.seed(req.seed);
  return b;
}

}  // namespace

Response Server::run_protect(const Request& req, bool degraded_mode) {
  auto machine = parse_machine(req);
  if (!machine) {
    return error_response(Code::kInvalidInput, machine.status().message,
                          req.id);
  }

  const core::SolverKind solver =
      degraded_mode ? core::SolverKind::kGreedy : solver_kind(req.solver);

  // Per-request wall budget: explicit deadline > server default; degraded
  // mode clamps hard so overflow traffic stays cheap.
  double wall_s = req.deadline_ms > 0 ? req.deadline_ms / 1000.0
                                      : opts_.default_deadline_s;
  if (degraded_mode) {
    wall_s = wall_s > 0 ? std::min(wall_s, opts_.degraded_budget_s)
                        : opts_.degraded_budget_s;
  }

  std::optional<storage::StoreArchive> archive;
  std::optional<DelayingArchive> delayed;
  core::ExtractArchive* arch = nullptr;
  if (store_ != nullptr && !degraded_mode) {
    archive.emplace(*store_);
    arch = &*archive;
    if (opts_.chaos_shard_delay_ms > 0) {
      delayed.emplace(*archive, opts_.chaos_shard_delay_ms);
      arch = &*delayed;
    }
  }

  obs::Tracer tracer;
  const int threads = request_threads(req, opts_.threads_per_request);
  RunConfig::Builder builder =
      request_shape(req, solver, opts_.checkpoint_shards);
  builder.threads(threads)
      .observe(obs::Sinks{&tracer, &registry_, 0})
      .tune([&](core::PipelineOptions& o) {
        o.budget.wall_seconds = wall_s;
        o.budget.interrupt = &drain_trip_;
      });
  if (arch != nullptr) {
    // Always pick up checkpoints left by a crashed run.
    builder.archive(arch).resume(true);
  }
  const Result<RunConfig> cfg = builder.build();
  if (!cfg) {
    return error_response(Code::kInvalidInput, cfg.status().message, req.id);
  }

  // Warm path: a scheme filed for this machine and configuration means a
  // prior full-quality run already answered this exact question — serve
  // it without touching extraction or the solver.
  if (arch != nullptr) {
    const storage::StoredScheme stored = storage::load_stored_scheme(
        *store_, core::derive_design(*machine, cfg->options()),
        cfg->options());
    if (stored.scheme) {
      registry_.add("ced_serve_warm_hits_total");
      Response resp;
      resp.id = req.id;
      resp.code = Code::kOk;
      resp.latency = stored.scheme->latency;
      resp.q = static_cast<int>(stored.scheme->parities.size());
      resp.parities = stored.scheme->parities;
      resp.cached = true;
      return resp;
    }
  }
  registry_.add(degraded_mode ? "ced_serve_degraded_runs_total"
                              : "ced_serve_cold_misses_total");

  const core::PipelineReport rep = ced::run_pipeline(*machine, *cfg);
  const core::ResilienceReport& res = rep.resilience;
  if (res.status.code == StatusCode::kInvalidInput ||
      res.status.code == StatusCode::kInternal ||
      res.status.code == StatusCode::kInfeasible) {
    return error_response(code_for(res), res.status.to_text(), req.id);
  }

  if (arch != nullptr) {
    // Full-quality schemes become warm cache entries; the manifest is the
    // audit record even of a drain-tripped run.
    storage::record_run(*store_, *cfg, rep, "serve:" + req.tenant,
                        tracer.snapshot());
  }

  Response resp;
  resp.id = req.id;
  resp.code = res.degraded() || degraded_mode ? Code::kDegraded : Code::kOk;
  resp.latency = rep.latency;
  resp.q = rep.num_trees;
  resp.parities = rep.parities;
  resp.degraded = res.degraded() || degraded_mode;
  resp.t_extract_s = rep.t_extract;
  resp.t_solve_s = rep.t_solve;
  return resp;
}

Response Server::run_sweep(const Request& req, bool degraded_mode) {
  auto machine = parse_machine(req);
  if (!machine) {
    return error_response(Code::kInvalidInput, machine.status().message,
                          req.id);
  }
  obs::Tracer tracer;
  double wall_s = req.deadline_ms > 0 ? req.deadline_ms / 1000.0
                                      : opts_.default_deadline_s;
  if (degraded_mode) {
    wall_s = wall_s > 0 ? std::min(wall_s, opts_.degraded_budget_s)
                        : opts_.degraded_budget_s;
  }
  RunConfig::Builder builder;
  builder
      .solver(degraded_mode ? core::SolverKind::kGreedy
                            : solver_kind(req.solver))
      .encoding(encoding_kind(req.encoding))
      .threads(request_threads(req, opts_.threads_per_request))
      .observe(obs::Sinks{&tracer, &registry_, 0})
      .tune([&](core::PipelineOptions& o) {
        o.budget.wall_seconds = wall_s;
        o.budget.interrupt = &drain_trip_;
      });
  if (req.semantics == "machine") {
    builder.semantics(core::DiffSemantics::kMachineLevel);
  }
  if (req.seed != 0) builder.seed(req.seed);
  const Result<RunConfig> cfg = builder.build();
  if (!cfg) {
    return error_response(Code::kInvalidInput, cfg.status().message, req.id);
  }
  registry_.add("ced_serve_sweeps_total");
  const auto reports = ced::run_latency_sweep(*machine, req.latencies, *cfg);
  Response resp;
  resp.id = req.id;
  resp.code = Code::kOk;
  for (const core::PipelineReport& rep : reports) {
    if (rep.resilience.status.code == StatusCode::kInvalidInput) {
      return error_response(Code::kInvalidInput,
                            rep.resilience.status.to_text(), req.id);
    }
    SweepEntry e;
    e.latency = rep.latency;
    e.q = rep.num_trees;
    e.parities = rep.parities;
    e.degraded = rep.resilience.degraded() || degraded_mode;
    if (e.degraded) resp.code = Code::kDegraded;
    resp.sweep.push_back(std::move(e));
  }
  return resp;
}

Response Server::run_verify(const Request& req) {
  if (store_ == nullptr) {
    return error_response(Code::kInvalidInput,
                          "verify requires a daemon started with a store",
                          req.id);
  }
  auto machine = parse_machine(req);
  if (!machine) {
    return error_response(Code::kInvalidInput, machine.status().message,
                          req.id);
  }
  const Result<RunConfig> cfg =
      request_shape(req, solver_kind(req.solver), opts_.checkpoint_shards)
          .build();
  if (!cfg) {
    return error_response(Code::kInvalidInput, cfg.status().message, req.id);
  }
  const core::Design design = core::derive_design(*machine, cfg->options());
  const storage::StoredScheme stored =
      storage::load_stored_checker(*store_, design, cfg->options());
  if (!stored.scheme) {
    return error_response(Code::kNotFound,
                          "no stored scheme for this machine/config: " +
                              stored.scheme.status().message,
                          req.id);
  }
  sim::CampaignOptions co;
  co.latency_bound = stored.scheme->latency;
  co.threads = request_threads(req, opts_.threads_per_request);
  const sim::CampaignReport rep =
      sim::run_campaign(design.circuit, stored.hw, design.faults, co);
  Response resp;
  resp.id = req.id;
  resp.code =
      rep.bound_holds() && !rep.truncated ? Code::kOk : Code::kDegraded;
  resp.latency = stored.scheme->latency;
  resp.q = static_cast<int>(stored.scheme->parities.size());
  resp.parities = stored.scheme->parities;
  resp.activations = rep.activations;
  resp.violations = rep.detected_late + rep.silent_escape + rep.false_alarms;
  return resp;
}

Response Server::health_response() {
  Response resp;
  resp.code = Code::kOk;
  std::lock_guard<std::mutex> lock(adm_mu_);
  resp.state = draining() ? "draining" : "ready";
  resp.workers = opts_.workers;
  resp.queued = queued_;
  resp.active = active_;
  return resp;
}

// --------------------------------------------------------------- drain

void Server::drain() {
  if (!running() || drained_.exchange(true)) return;
  draining_.store(true, std::memory_order_release);

  // Stop accepting: wake the accept loops, then close the listeners.
  if (wake_pipe_[1] >= 0) {
    const char byte = 'x';
    [[maybe_unused]] const auto r = ::write(wake_pipe_[1], &byte, 1);
  }
  for (std::thread& t : accept_threads_) t.join();
  accept_threads_.clear();
  if (metrics_thread_.joinable()) metrics_thread_.join();
  for (int& fd : listen_fds_) close_fd(fd);
  listen_fds_.clear();
  close_fd(metrics_fd_);
  if (!opts_.unix_socket.empty()) ::unlink(opts_.unix_socket.c_str());

  // Give in-flight work its grace period, then trip the interrupt valve
  // so whatever is still running checkpoints and returns truncated.
  const auto grace_end =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(std::max(0.0, opts_.drain_grace_s)));
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(adm_mu_);
      if (active_ == 0) break;
    }
    if (std::chrono::steady_clock::now() >= grace_end) {
      drain_trip_.store(true, std::memory_order_release);
      break;
    }
    std::this_thread::sleep_for(5ms);
  }

  // Workers: answer everything still queued with kDraining, then exit.
  {
    std::lock_guard<std::mutex> lock(adm_mu_);
    stop_workers_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : worker_threads_) t.join();
  worker_threads_.clear();

  // Connections: every flight has its response by now, but the conn
  // threads may still be writing them out. Shut down the read side so
  // idle connections unblock, let in-progress writes finish, then join.
  close_all_connections();
  std::vector<std::thread> conns;
  {
    // Join outside the lock: conn_loop re-takes conn_mu_ on its way out.
    std::lock_guard<std::mutex> lock(conn_mu_);
    conns.swap(conn_threads_);
  }
  for (std::thread& t : conns) t.join();
  close_fd(wake_pipe_[0]);
  close_fd(wake_pipe_[1]);

  if (store_ != nullptr) {
    // Manifests were flushed per job; surface any accumulated incidents
    // as metrics so the final scrape (or a post-mortem) sees them.
    const auto events = store_->drain_events();
    if (!events.empty()) {
      registry_.add("ced_serve_store_incidents_total", events.size());
    }
  }
  running_.store(false, std::memory_order_release);
}

}  // namespace ced::serve
