// ced_serve hardening suite: the malformed wire-frame corpus (truncated,
// oversized, invalid UTF-8, garbage JSON — every entry must earn a
// structured kInvalidInput, never a crash), the strict JSON reader,
// retry/backoff bounds, the interrupt valve, warm/cold/dedup serving,
// admission control (overload rejection, degraded mode, per-request
// deadlines), graceful drain, and the RunConfig digest golden pin.

#include "serve/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "benchdata/generator.hpp"
#include "benchdata/handwritten.hpp"
#include "common/retry.hpp"
#include "core/resilience.hpp"
#include "core/run.hpp"
#include "serve/client.hpp"

namespace ced::serve {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------ retry unit

TEST(Retry, DelaysStayWithinPolicyBounds) {
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.base_ms = 10.0;
  policy.cap_ms = 100.0;
  policy.max_elapsed_ms = 0.0;
  RetryState state(policy, /*seed=*/42);
  int delays = 0;
  for (;;) {
    const double d = state.next_delay_ms();
    if (d < 0) break;
    EXPECT_GE(d, policy.base_ms);
    EXPECT_LE(d, policy.cap_ms);
    ++delays;
  }
  // max_attempts includes the first try, so 6 attempts = 5 backoffs.
  EXPECT_EQ(delays, 5);
}

TEST(Retry, DeterministicForFixedSeed) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  RetryState a(policy, 7), b(policy, 7), c(policy, 8);
  const double a1 = a.next_delay_ms(), b1 = b.next_delay_ms();
  EXPECT_EQ(a1, b1);
  EXPECT_EQ(a.next_delay_ms(), b.next_delay_ms());
  // A different seed diverges somewhere in the first few draws.
  bool diverged = std::abs(c.next_delay_ms() - a1) > 1e-12;
  diverged = diverged || std::abs(c.next_delay_ms() - a1) > 1e-12;
  EXPECT_TRUE(diverged);
}

TEST(Retry, ServerHintOverridesComputedDelay) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.cap_ms = 500.0;
  RetryState state(policy, 1);
  EXPECT_EQ(state.next_delay_ms(123.0), 123.0);
  // A hint above the cap is clamped.
  EXPECT_EQ(state.next_delay_ms(9999.0), 500.0);
  // The hint path still consumes the attempt budget.
  EXPECT_GE(state.next_delay_ms(1.0), 0.0);
  EXPECT_LT(state.next_delay_ms(1.0), 0.0);
}

TEST(Retry, NonePolicyAllowsNoRetries) {
  RetryState state(RetryPolicy::none(), 1);
  EXPECT_LT(state.next_delay_ms(), 0.0);
}

TEST(Retry, RetryCallStopsOnSuccess) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  int calls = 0;
  std::vector<double> slept;
  const bool ok = retry_call(
      policy, [&](int) { return ++calls == 3; }, /*seed=*/1,
      [&](double ms) { slept.push_back(ms); });
  EXPECT_TRUE(ok);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(slept.size(), 2u);
}

// --------------------------------------------------------- interrupt valve

TEST(InterruptValve, TripsDeadlineWithoutWallBudget) {
  std::atomic<bool> flag{false};
  core::RunBudget budget;  // no wall_seconds: only the interrupt channel
  budget.interrupt = &flag;
  core::Deadline d = core::Deadline::from(budget);
  EXPECT_TRUE(d.armed());  // stages must poll even with no wall clock
  EXPECT_FALSE(d.expired());
  flag.store(true);
  EXPECT_TRUE(d.expired());
}

TEST(InterruptValve, UnlimitedBudgetStaysUnarmed) {
  const core::Deadline d = core::Deadline::from(core::RunBudget{});
  EXPECT_FALSE(d.armed());
  EXPECT_FALSE(d.expired());
}

// ------------------------------------------------------------- JSON reader

TEST(Json, ParsesNestedDocument) {
  auto doc = Json::parse(
      R"({"op":"protect","n":-2.5e3,"ok":true,"z":null,)"
      R"("arr":[1,"two",{"k":"v"}],"esc":"a\"b\\cA😀"})");
  ASSERT_TRUE(doc.has_value()) << doc.status().to_text();
  EXPECT_EQ(doc->get("op")->str_or(""), "protect");
  EXPECT_EQ(doc->get("n")->num_or(0), -2500.0);
  EXPECT_TRUE(doc->get("ok")->bool_or(false));
  EXPECT_TRUE(doc->get("z")->is_null());
  ASSERT_EQ(doc->get("arr")->items().size(), 3u);
  EXPECT_EQ(doc->get("arr")->items()[2].get("k")->str_or(""), "v");
  // A is 'A'; the surrogate pair is U+1F600 in UTF-8.
  EXPECT_EQ(doc->get("esc")->str_or(""), "a\"b\\cA\xf0\x9f\x98\x80");
}

TEST(Json, MalformedCorpusIsRejectedStructurally) {
  const std::vector<std::pair<const char*, std::string>> corpus = {
      {"empty", ""},
      {"garbage", "not json at all"},
      {"truncated-object", R"({"op":"prot)"},
      {"truncated-array", "[1,2,"},
      {"trailing-content", "{} extra"},
      {"bare-nan", "NaN"},
      {"bare-inf", "Infinity"},
      {"leading-zero", "0123"},
      {"plus-number", "+1"},
      {"trailing-comma-obj", R"({"a":1,})"},
      {"trailing-comma-arr", "[1,]"},
      {"single-quotes", "{'a':1}"},
      {"unquoted-key", "{a:1}"},
      {"bad-escape", R"({"a":"\q"})"},
      {"lone-surrogate", R"({"a":"\ud83d"})"},
      {"raw-control-char", std::string("{\"a\":\"\x01\"}", 10)},
      {"invalid-utf8", std::string("{\"a\":\"\xff\xfe\"}", 10)},
      {"overlong-utf8", std::string("{\"a\":\"\xc0\xaf\"}", 10)},
      {"utf8-surrogate-bytes", std::string("{\"a\":\"\xed\xa0\x80\"}", 11)},
  };
  for (const auto& [name, text] : corpus) {
    auto doc = Json::parse(text);
    EXPECT_FALSE(doc.has_value()) << name;
    if (!doc) {
      EXPECT_EQ(doc.status().code, StatusCode::kInvalidInput) << name;
      EXPECT_FALSE(doc.status().message.empty()) << name;
    }
  }
}

TEST(Json, DepthLimitHolds) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  for (int i = 0; i < 100; ++i) deep += ']';
  auto doc = Json::parse(deep);
  ASSERT_FALSE(doc.has_value());
  EXPECT_EQ(doc.status().code, StatusCode::kInvalidInput);
  // 64 levels exactly must still parse.
  std::string ok_depth;
  for (int i = 0; i < 64; ++i) ok_depth += '[';
  for (int i = 0; i < 64; ++i) ok_depth += ']';
  EXPECT_TRUE(Json::parse(ok_depth).has_value());
}

// ----------------------------------------------------------- frame layer

class FramePair : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    if (fds_[0] >= 0) ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
  }
  int fds_[2] = {-1, -1};
};

TEST_F(FramePair, RoundTrip) {
  ASSERT_TRUE(write_frame(fds_[0], R"({"op":"health"})").ok());
  std::string payload;
  EXPECT_EQ(read_frame(fds_[1], payload), FrameStatus::kOk);
  EXPECT_EQ(payload, R"({"op":"health"})");
}

TEST_F(FramePair, CleanEofIsClosed) {
  ::close(fds_[0]);
  fds_[0] = -1;
  std::string payload;
  EXPECT_EQ(read_frame(fds_[1], payload), FrameStatus::kClosed);
}

TEST_F(FramePair, TruncatedHeaderAndPayloadAreTorn) {
  const char half_header[2] = {0, 0};
  ASSERT_EQ(::send(fds_[0], half_header, 2, 0), 2);
  ::close(fds_[0]);
  fds_[0] = -1;
  std::string payload;
  EXPECT_EQ(read_frame(fds_[1], payload), FrameStatus::kTorn);
}

TEST_F(FramePair, ShortPayloadIsTorn) {
  const unsigned char header[4] = {0, 0, 0, 100};  // declares 100 bytes
  ASSERT_EQ(::send(fds_[0], header, 4, 0), 4);
  ASSERT_EQ(::send(fds_[0], "short", 5, 0), 5);
  ::close(fds_[0]);
  fds_[0] = -1;
  std::string payload;
  EXPECT_EQ(read_frame(fds_[1], payload), FrameStatus::kTorn);
}

TEST_F(FramePair, OversizedPrefixRejectedBeforeAllocation) {
  const unsigned char header[4] = {0x7f, 0xff, 0xff, 0xff};  // ~2 GiB claim
  ASSERT_EQ(::send(fds_[0], header, 4, 0), 4);
  std::string payload;
  EXPECT_EQ(read_frame(fds_[1], payload, /*max_bytes=*/1024),
            FrameStatus::kTooLarge);
  EXPECT_TRUE(payload.empty());  // nothing was reserved for the liar
}

TEST_F(FramePair, ZeroLengthFrameRejected) {
  const unsigned char header[4] = {0, 0, 0, 0};
  ASSERT_EQ(::send(fds_[0], header, 4, 0), 4);
  std::string payload;
  EXPECT_EQ(read_frame(fds_[1], payload), FrameStatus::kTooLarge);
}

// -------------------------------------------------------------- protocol

TEST(Protocol, RequestRoundTrip) {
  Request req;
  req.op = "sweep";
  req.id = "r-1";
  req.tenant = "team-a";
  req.kiss = benchdata::handwritten_kiss("traffic");
  req.latency = 3;
  req.latencies = {1, 2, 3};
  req.solver = "greedy";
  req.encoding = "gray";
  req.semantics = "machine";
  req.seed = 99;
  req.deadline_ms = 1500;
  req.threads = 3;
  auto doc = Json::parse(encode_request(req));
  ASSERT_TRUE(doc.has_value()) << doc.status().to_text();
  auto back = parse_request(*doc);
  ASSERT_TRUE(back.has_value()) << back.status().to_text();
  EXPECT_EQ(back->op, req.op);
  EXPECT_EQ(back->id, req.id);
  EXPECT_EQ(back->tenant, req.tenant);
  EXPECT_EQ(back->kiss, req.kiss);
  EXPECT_EQ(back->latencies, req.latencies);
  EXPECT_EQ(back->solver, req.solver);
  EXPECT_EQ(back->semantics, req.semantics);
  EXPECT_EQ(back->seed, req.seed);
  EXPECT_EQ(back->deadline_ms, req.deadline_ms);
  EXPECT_EQ(back->threads, req.threads);
}

// Requests that never mention the thread count come back with the server
// default (0), and the encoder omits it — old clients and new servers
// interoperate.
TEST(Protocol, ExecPolicyFieldsDefaultToAuto) {
  Request req;
  req.op = "protect";
  req.kiss = ".i 1";
  const std::string wire = encode_request(req);
  EXPECT_EQ(wire.find("threads"), std::string::npos);
  auto doc = Json::parse(wire);
  ASSERT_TRUE(doc.has_value());
  auto back = parse_request(*doc);
  ASSERT_TRUE(back.has_value()) << back.status().to_text();
  EXPECT_EQ(back->threads, 0);
}

TEST(Protocol, ResponseParityMasksSurviveAboveDoublePrecision) {
  Response resp;
  resp.code = Code::kOk;
  resp.q = 2;
  // Above 2^53: a double round-trip would corrupt these masks.
  resp.parities = {0xffffffffffffffffull, 0x8000000000000001ull};
  auto doc = Json::parse(encode_response(resp));
  ASSERT_TRUE(doc.has_value());
  auto back = parse_response(*doc);
  ASSERT_TRUE(back.has_value()) << back.status().to_text();
  EXPECT_EQ(back->parities, resp.parities);
}

TEST(Protocol, InvalidRequestsAreStructurallyRejected) {
  const std::vector<std::pair<const char*, const char*>> corpus = {
      {"not-an-object", "[1,2,3]"},
      {"missing-op", R"({"kiss":".i 1"})"},
      {"unknown-op", R"({"op":"explode","kiss":".i 1"})"},
      {"missing-kiss", R"({"op":"protect"})"},
      {"empty-kiss", R"({"op":"protect","kiss":""})"},
      {"bad-latency-type", R"({"op":"protect","kiss":"x","latency":"two"})"},
      {"negative-latency", R"({"op":"protect","kiss":"x","latency":-3})"},
      {"fractional-latency", R"({"op":"protect","kiss":"x","latency":1.5})"},
      {"bad-solver", R"({"op":"protect","kiss":"x","solver":"quantum"})"},
      {"bad-encoding", R"({"op":"protect","kiss":"x","encoding":"morse"})"},
      {"sweep-without-latencies", R"({"op":"sweep","kiss":"x"})"},
      {"bad-threads", R"({"op":"protect","kiss":"x","threads":-1})"},
      {"oversized-id",
       R"({"op":"health","id":")"
       "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
       "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
       "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
       "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
       "\"}"},
  };
  for (const auto& [name, text] : corpus) {
    auto doc = Json::parse(text);
    ASSERT_TRUE(doc.has_value()) << name;
    auto req = parse_request(*doc);
    EXPECT_FALSE(req.has_value()) << name;
    if (!req) {
      EXPECT_EQ(req.status().code, StatusCode::kInvalidInput) << name;
    }
  }
}

// --------------------------------------------------------- digest golden

TEST(RunConfigDigest, GoldenPinForKnownConfig) {
  const auto cfg = RunConfig::Builder()
                       .latency(3)
                       .solver(core::SolverKind::kGreedy)
                       .encoding(fsm::EncodingKind::kGray)
                       .seed(7)
                       .build();
  ASSERT_TRUE(cfg.has_value()) << cfg.status().to_text();
  // Pinned: a change here means every stored manifest's config_digest
  // changes meaning. Bump RunConfig's digest schema version deliberately,
  // never accidentally.
  EXPECT_EQ(cfg->digest(), "ed4e0415f7575bd289b1f0532fe6efdc");
  // The digest covers results, not execution context: threads and
  // observability must not move it (archive/resume are covered by
  // test_obs's exclusion checks).
  obs::MetricsRegistry registry;
  const auto ctx = RunConfig::Builder(*cfg)
                       .threads(8)
                       .observe(obs::Sinks{nullptr, &registry, 0})
                       .build();
  ASSERT_TRUE(ctx.has_value());
  EXPECT_EQ(ctx->digest(), cfg->digest());
}

// ------------------------------------------------------------ server E2E

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char buf[] = "/tmp/ced_serve_test_XXXXXX";
    ASSERT_NE(::mkdtemp(buf), nullptr);
    dir_ = buf;
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  ServerOptions base_options() {
    ServerOptions opts;
    opts.unix_socket = (dir_ / "sock").string();
    opts.store_dir = (dir_ / "store").string();
    opts.workers = 2;
    opts.queue_depth = 4;
    opts.drain_grace_s = 0.05;
    return opts;
  }

  ClientOptions client_options() {
    ClientOptions copts;
    copts.unix_socket = (dir_ / "sock").string();
    copts.retry = RetryPolicy::none();
    return copts;
  }

  Request protect_request(const std::string& kiss, std::uint64_t seed = 0) {
    Request req;
    req.op = "protect";
    req.kiss = kiss;
    req.latency = 2;
    req.seed = seed;
    return req;
  }

  /// Raw connected socket for wire-level attack tests.
  int raw_connect() {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, (dir_ / "sock").c_str(),
                 sizeof(addr.sun_path) - 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    return fd;
  }

  std::uint64_t counter(Server& server, const std::string& name) {
    const auto counters = server.metrics().snapshot().counters;
    const auto it = counters.find(name);
    return it != counters.end() ? it->second : 0;
  }

  fs::path dir_;
};

TEST_F(ServeTest, HealthAndMetricsOps) {
  Server server(base_options());
  ASSERT_TRUE(server.start().ok());
  Client client(client_options());
  Request req;
  req.op = "health";
  req.id = "h1";
  auto resp = client.call_once(req);
  ASSERT_TRUE(resp.has_value()) << resp.status().to_text();
  EXPECT_EQ(resp->code, Code::kOk);
  EXPECT_EQ(resp->id, "h1");
  EXPECT_EQ(resp->state, "ready");
  EXPECT_EQ(resp->workers, 2);
  req.op = "metrics";
  resp = client.call_once(req);
  ASSERT_TRUE(resp.has_value());
  EXPECT_NE(resp->prometheus.find("ced_serve_requests_total"),
            std::string::npos);
  server.drain();
}

TEST_F(ServeTest, ColdThenWarmProtect) {
  Server server(base_options());
  ASSERT_TRUE(server.start().ok());
  Client client(client_options());
  const std::string kiss = benchdata::handwritten_kiss("traffic");

  auto cold = client.call_once(protect_request(kiss));
  ASSERT_TRUE(cold.has_value()) << cold.status().to_text();
  ASSERT_EQ(cold->code, Code::kOk) << cold->error;
  EXPECT_FALSE(cold->cached);
  EXPECT_GT(cold->q, 0);
  EXPECT_EQ(cold->parities.size(), static_cast<std::size_t>(cold->q));

  auto warm = client.call_once(protect_request(kiss));
  ASSERT_TRUE(warm.has_value()) << warm.status().to_text();
  ASSERT_EQ(warm->code, Code::kOk) << warm->error;
  EXPECT_TRUE(warm->cached);
  EXPECT_EQ(warm->parities, cold->parities);

  EXPECT_EQ(counter(server, "ced_serve_cold_misses_total"), 1u);
  EXPECT_EQ(counter(server, "ced_serve_warm_hits_total"), 1u);
  server.drain();
}

// A request may pin its own thread count. It changes wall-clock only,
// never results: because it is excluded from the cache key, a later
// default-policy request warm-hits the pinned run's cache entry.
TEST_F(ServeTest, ExecPolicyPinnedPerRequestSharesCache) {
  Server server(base_options());
  ASSERT_TRUE(server.start().ok());
  Client client(client_options());
  const std::string kiss = benchdata::handwritten_kiss("traffic");

  Request pinned = protect_request(kiss);
  pinned.threads = 1;
  auto cold = client.call_once(pinned);
  ASSERT_TRUE(cold.has_value()) << cold.status().to_text();
  ASSERT_EQ(cold->code, Code::kOk) << cold->error;
  EXPECT_FALSE(cold->cached);

  auto warm = client.call_once(protect_request(kiss));
  ASSERT_TRUE(warm.has_value()) << warm.status().to_text();
  ASSERT_EQ(warm->code, Code::kOk) << warm->error;
  EXPECT_TRUE(warm->cached);
  EXPECT_EQ(warm->parities, cold->parities);
  server.drain();
}

// Clients built when requests could pin a cover kernel and an LP solver
// still send "kernel"/"lp". Unknown keys are ignored, so such a request
// must be served (kOk) with the parities of the same request without
// them. No store: both requests are solved cold.
TEST_F(ServeTest, RetiredKernelAndLpFieldsAreIgnored) {
  ServerOptions opts = base_options();
  opts.store_dir.clear();
  Server server(opts);
  ASSERT_TRUE(server.start().ok());
  const std::string kiss = benchdata::handwritten_kiss("traffic");

  std::string payload = encode_request(protect_request(kiss));
  ASSERT_EQ(payload.front(), '{');
  payload.insert(1, R"("kernel":"scalar","lp":"dense",)");
  const int fd = raw_connect();
  ASSERT_TRUE(write_frame(fd, payload).ok());
  std::string reply;
  ASSERT_EQ(read_frame(fd, reply), FrameStatus::kOk);
  ::close(fd);
  auto doc = Json::parse(reply);
  ASSERT_TRUE(doc.has_value()) << reply;
  auto old_client = parse_response(*doc);
  ASSERT_TRUE(old_client.has_value()) << old_client.status().to_text();
  ASSERT_EQ(old_client->code, Code::kOk) << old_client->error;

  Client client(client_options());
  auto plain = client.call_once(protect_request(kiss));
  ASSERT_TRUE(plain.has_value()) << plain.status().to_text();
  ASSERT_EQ(plain->code, Code::kOk) << plain->error;
  EXPECT_FALSE(plain->cached);
  EXPECT_EQ(old_client->parities, plain->parities);
  EXPECT_EQ(old_client->q, plain->q);
  server.drain();
}

TEST_F(ServeTest, VerifyAfterProtect) {
  Server server(base_options());
  ASSERT_TRUE(server.start().ok());
  Client client(client_options());
  const std::string kiss = benchdata::handwritten_kiss("traffic");

  Request vreq = protect_request(kiss);
  vreq.op = "verify";
  auto missing = client.call_once(vreq);
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->code, Code::kNotFound);

  auto prot = client.call_once(protect_request(kiss));
  ASSERT_TRUE(prot.has_value());
  ASSERT_EQ(prot->code, Code::kOk) << prot->error;

  auto verified = client.call_once(vreq);
  ASSERT_TRUE(verified.has_value());
  EXPECT_EQ(verified->code, Code::kOk) << verified->error;
  EXPECT_GT(verified->activations, 0u);
  EXPECT_EQ(verified->violations, 0u);
  EXPECT_EQ(verified->parities, prot->parities);
  server.drain();
}

TEST_F(ServeTest, SweepOverLatencies) {
  Server server(base_options());
  ASSERT_TRUE(server.start().ok());
  Client client(client_options());
  Request req = protect_request(benchdata::handwritten_kiss("traffic"));
  req.op = "sweep";
  req.latencies = {1, 2, 3};
  auto resp = client.call_once(req);
  ASSERT_TRUE(resp.has_value()) << resp.status().to_text();
  ASSERT_EQ(resp->code, Code::kOk) << resp->error;
  ASSERT_EQ(resp->sweep.size(), 3u);
  // q is monotone non-increasing in the latency bound (paper Table 2).
  EXPECT_GE(resp->sweep[0].q, resp->sweep[1].q);
  EXPECT_GE(resp->sweep[1].q, resp->sweep[2].q);
  server.drain();
}

TEST_F(ServeTest, ConcurrentIdenticalRequestsCoalesce) {
  ServerOptions opts = base_options();
  opts.chaos_job_delay_ms = 200;  // hold the leader so the follower joins
  Server server(opts);
  ASSERT_TRUE(server.start().ok());
  const std::string kiss = benchdata::handwritten_kiss("traffic");

  Result<Response> first = Status::make_ok(), second = Status::make_ok();
  std::thread leader([&] {
    Client client(client_options());
    first = client.call_once(protect_request(kiss));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  std::thread follower([&] {
    Client client(client_options());
    second = client.call_once(protect_request(kiss));
  });
  leader.join();
  follower.join();
  ASSERT_TRUE(first.has_value()) << first.status().to_text();
  ASSERT_TRUE(second.has_value()) << second.status().to_text();
  EXPECT_EQ(first->code, Code::kOk) << first->error;
  EXPECT_EQ(second->code, Code::kOk) << second->error;
  EXPECT_EQ(first->parities, second->parities);
  EXPECT_TRUE(second->deduped);
  EXPECT_EQ(counter(server, "ced_serve_dedup_joins_total"), 1u);
  // One pipeline run served both: exactly one cold miss.
  EXPECT_EQ(counter(server, "ced_serve_cold_misses_total"), 1u);
  server.drain();
}

TEST_F(ServeTest, SaturatedQueueRejectsWithRetryHint) {
  ServerOptions opts = base_options();
  opts.workers = 1;
  opts.queue_depth = 1;
  opts.chaos_job_delay_ms = 400;
  Server server(opts);
  ASSERT_TRUE(server.start().ok());
  const std::string kiss = benchdata::handwritten_kiss("traffic");

  // Distinct seeds → distinct dedup keys → three independent jobs.
  std::thread a([&] {
    Client client(client_options());
    (void)client.call_once(protect_request(kiss, 1));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::thread b([&] {
    Client client(client_options());
    (void)client.call_once(protect_request(kiss, 2));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  Client client(client_options());
  auto rejected = client.call_once(protect_request(kiss, 3));
  ASSERT_TRUE(rejected.has_value()) << rejected.status().to_text();
  EXPECT_EQ(rejected->code, Code::kOverloaded);
  EXPECT_GT(rejected->retry_after_ms, 0.0);
  EXPECT_FALSE(rejected->error.empty());
  EXPECT_GE(counter(server, "ced_serve_overload_rejections_total"), 1u);
  a.join();
  b.join();
  server.drain();
}

TEST_F(ServeTest, DegradedModeServesOverflowInline) {
  ServerOptions opts = base_options();
  opts.workers = 1;
  opts.queue_depth = 1;
  opts.chaos_job_delay_ms = 400;
  opts.degrade_on_overload = true;
  opts.degraded_budget_s = 5.0;  // generous: we want an answer, not a trip
  Server server(opts);
  ASSERT_TRUE(server.start().ok());
  const std::string kiss = benchdata::handwritten_kiss("traffic");

  std::thread a([&] {
    Client client(client_options());
    (void)client.call_once(protect_request(kiss, 1));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::thread b([&] {
    Client client(client_options());
    (void)client.call_once(protect_request(kiss, 2));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  Client client(client_options());
  auto overflow = client.call_once(protect_request(kiss, 3));
  ASSERT_TRUE(overflow.has_value()) << overflow.status().to_text();
  // Served inline from the greedy cascade: flagged degraded, still a
  // complete cover.
  EXPECT_EQ(overflow->code, Code::kDegraded) << overflow->error;
  EXPECT_TRUE(overflow->degraded);
  EXPECT_GT(overflow->q, 0);
  EXPECT_GE(counter(server, "ced_serve_degraded_mode_total"), 1u);
  a.join();
  b.join();
  server.drain();
}

TEST_F(ServeTest, PerRequestDeadlinePropagatesIntoRun) {
  Server server(base_options());
  ASSERT_TRUE(server.start().ok());
  Client client(client_options());
  // A machine big enough that extraction cannot finish in a millisecond.
  benchdata::SyntheticSpec spec;
  spec.states = 48;
  spec.inputs = 3;
  spec.seed = 11;
  Request req = protect_request(benchdata::generate_kiss(spec));
  req.latency = 4;
  req.deadline_ms = 1;
  auto resp = client.call_once(req);
  ASSERT_TRUE(resp.has_value()) << resp.status().to_text();
  ASSERT_EQ(resp->code, Code::kDegraded) << resp->error;
  EXPECT_TRUE(resp->degraded);
  // Same machine without the deadline completes at full quality — the
  // degradation above really was the per-request deadline propagating
  // into the run's valves, not the machine being unprotectable.
  req.deadline_ms = 0;
  req.seed = 2;  // different dedup key: don't join the degraded flight
  auto full = client.call_once(req);
  ASSERT_TRUE(full.has_value()) << full.status().to_text();
  EXPECT_EQ(full->code, Code::kOk) << full->error;
  EXPECT_GT(full->q, 0);
  server.drain();
}

TEST_F(ServeTest, MalformedWireCorpusNeverKillsTheDaemon) {
  Server server(base_options());
  ASSERT_TRUE(server.start().ok());

  // Each payload is framed correctly but rotten inside: the daemon must
  // answer a structured kInvalidInput on the same connection.
  const std::vector<std::pair<const char*, std::string>> bad_payloads = {
      {"garbage", "complete garbage"},
      {"truncated-json", R"({"op":"protect","kiss":)"},
      {"invalid-utf8", std::string("\xff\xfe{}", 4)},
      {"wrong-root", "[1,2,3]"},
      {"unknown-op", R"({"op":"detonate","kiss":"x"})"},
      {"missing-kiss", R"({"op":"protect"})"},
      {"bad-kiss-text", R"({"op":"protect","kiss":"this is not kiss2"})"},
  };
  for (const auto& [name, payload] : bad_payloads) {
    const int fd = raw_connect();
    ASSERT_TRUE(write_frame(fd, payload).ok()) << name;
    std::string reply;
    ASSERT_EQ(read_frame(fd, reply), FrameStatus::kOk) << name;
    auto doc = Json::parse(reply);
    ASSERT_TRUE(doc.has_value()) << name;
    auto resp = parse_response(*doc);
    ASSERT_TRUE(resp.has_value()) << name;
    EXPECT_EQ(resp->code, Code::kInvalidInput) << name;
    EXPECT_FALSE(resp->error.empty()) << name;
    ::close(fd);
  }

  // Wire-level attacks: oversized length prefix and a torn frame.
  {
    const int fd = raw_connect();
    const unsigned char header[4] = {0x7f, 0xff, 0xff, 0xff};
    ASSERT_EQ(::send(fd, header, 4, 0), 4);
    std::string reply;
    ASSERT_EQ(read_frame(fd, reply), FrameStatus::kOk);
    auto resp = parse_response(*Json::parse(reply));
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->code, Code::kInvalidInput);
    ::close(fd);
  }
  {
    const int fd = raw_connect();
    const unsigned char header[4] = {0, 0, 0, 50};  // promises 50 bytes
    ASSERT_EQ(::send(fd, header, 4, 0), 4);
    ASSERT_EQ(::send(fd, "only-ten.", 9, 0), 9);
    ::close(fd);  // disconnect mid-frame
  }

  // After the whole corpus the daemon is still alive and serving.
  Client client(client_options());
  Request health;
  health.op = "health";
  auto resp = client.call_once(health);
  ASSERT_TRUE(resp.has_value()) << resp.status().to_text();
  EXPECT_EQ(resp->state, "ready");
  EXPECT_GE(counter(server, "ced_serve_invalid_frames_total"), 6u);
  // The torn connection is read on its own thread, which may notice the
  // disconnect only after the health request was answered.
  for (int i = 0;
       i < 200 && counter(server, "ced_serve_torn_frames_total") == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(counter(server, "ced_serve_torn_frames_total"), 1u);
  server.drain();
}

TEST_F(ServeTest, DrainAnswersQueuedWorkAndStopsAccepting) {
  ServerOptions opts = base_options();
  opts.workers = 1;
  opts.queue_depth = 4;
  opts.chaos_job_delay_ms = 300;
  Server server(opts);
  ASSERT_TRUE(server.start().ok());
  const std::string kiss = benchdata::handwritten_kiss("traffic");

  Result<Response> running = Status::make_ok(), queued = Status::make_ok();
  std::thread a([&] {
    Client client(client_options());
    running = client.call_once(protect_request(kiss, 1));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::thread b([&] {
    Client client(client_options());
    queued = client.call_once(protect_request(kiss, 2));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  server.drain();
  a.join();
  b.join();

  // The in-flight request got an answer (full quality if it beat the grace
  // period, degraded if the valve tripped — never dropped).
  ASSERT_TRUE(running.has_value()) << running.status().to_text();
  EXPECT_TRUE(running->code == Code::kOk || running->code == Code::kDegraded)
      << to_string(running->code);
  // The queued-but-never-started request was told to go elsewhere.
  ASSERT_TRUE(queued.has_value()) << queued.status().to_text();
  EXPECT_EQ(queued->code, Code::kDraining);
  EXPECT_GT(queued->retry_after_ms, 0.0);
  EXPECT_FALSE(server.running());

  // New connections are refused after drain (socket file is gone).
  Client late(client_options());
  Request health;
  health.op = "health";
  EXPECT_FALSE(late.call_once(health).has_value());
}

TEST_F(ServeTest, ClientRetriesThroughOverloadWithInjectedSleep) {
  ServerOptions opts = base_options();
  opts.workers = 1;
  opts.queue_depth = 1;
  opts.chaos_job_delay_ms = 250;
  Server server(opts);
  ASSERT_TRUE(server.start().ok());
  const std::string kiss = benchdata::handwritten_kiss("traffic");

  std::thread a([&] {
    Client client(client_options());
    (void)client.call_once(protect_request(kiss, 1));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  std::thread b([&] {
    Client client(client_options());
    (void)client.call_once(protect_request(kiss, 2));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  // call(): pushback (kOverloaded) is retried with real waiting — here the
  // injected sleep keeps the test fast while proving the loop consumes the
  // server's retry-after hints.
  ClientOptions copts = client_options();
  copts.retry.max_attempts = 20;
  copts.retry.base_ms = 10.0;
  copts.retry.cap_ms = 50.0;
  copts.retry.max_elapsed_ms = 0.0;
  std::atomic<int> sleeps{0};
  copts.sleep = [&](double ms) {
    ++sleeps;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(std::min(ms, 60.0)));
  };
  Client client(copts);
  auto resp = client.call(protect_request(kiss, 3));
  ASSERT_TRUE(resp.has_value()) << resp.status().to_text();
  EXPECT_EQ(resp->code, Code::kOk) << resp->error;
  EXPECT_GE(sleeps.load(), 1);  // it had to back off at least once
  a.join();
  b.join();
  server.drain();
}

TEST_F(ServeTest, StatelessServerStillProtects) {
  ServerOptions opts = base_options();
  opts.store_dir.clear();  // no store: no cache, no checkpoints
  Server server(opts);
  ASSERT_TRUE(server.start().ok());
  Client client(client_options());
  auto resp =
      client.call_once(protect_request(benchdata::handwritten_kiss("traffic")));
  ASSERT_TRUE(resp.has_value()) << resp.status().to_text();
  EXPECT_EQ(resp->code, Code::kOk) << resp->error;
  EXPECT_FALSE(resp->cached);
  server.drain();
}

}  // namespace
}  // namespace ced::serve
