#pragma once

// Client side of the ced_serve protocol: connect, frame, retry.
//
// `Client::call` is the resilient entry point: it retries transport
// failures (connect refused, torn frames — the daemon restarting under
// chaos) and service pushback (kOverloaded, kDraining) with the shared
// capped-exponential/decorrelated-jitter policy from common/retry.hpp,
// honoring the server's retry-after hint when one is present. Structured
// outcomes (kOk/kDegraded/kInvalidInput/kNotFound/kInternal) are final and
// returned to the caller untouched — retrying an invalid request would
// never help.

#include <functional>
#include <string>

#include "common/retry.hpp"
#include "common/status.hpp"
#include "serve/protocol.hpp"

namespace ced::serve {

struct ClientOptions {
  /// Unix-domain socket path ("" = use TCP).
  std::string unix_socket;
  /// TCP endpoint on 127.0.0.1 (used when unix_socket is empty).
  int tcp_port = -1;
  /// Retry policy for transport failures and service pushback.
  RetryPolicy retry{};
  /// Jitter seed (deterministic backoff sequences in tests).
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
  /// Injectable sleep for tests; nullptr = std::this_thread::sleep_for.
  std::function<void(double ms)> sleep;
};

class Client {
 public:
  explicit Client(ClientOptions opts);

  /// One request/response exchange without retries: connect (or reuse the
  /// kept-alive connection), write the frame, read one frame back.
  /// Transport failures surface as kTruncated (torn/closed) or kInternal
  /// (connect/IO errors).
  Result<Response> call_once(const Request& req);

  /// Resilient exchange; see file comment. The number of attempts and the
  /// total backoff are bounded by the policy — on budget exhaustion the
  /// last failure (transport Status or pushback Response) is returned.
  Result<Response> call(const Request& req);

  /// Drops the kept-alive connection (next call reconnects).
  void disconnect();

  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

 private:
  Status connect();

  ClientOptions opts_;
  RetryState retry_;
  int fd_ = -1;
};

}  // namespace ced::serve
