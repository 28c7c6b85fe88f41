#pragma once

// Request/response schemas of the ced_serve protocol (one JSON document
// per frame; see wire.hpp for the frame format and DESIGN.md §12 for the
// full contract). Both directions are implemented here so the daemon, the
// client, and the tests share one codec and cannot drift apart.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "serve/wire.hpp"

namespace ced::serve {

/// Wire-level outcome classification carried in every response's "status"
/// field. Extends the library's StatusCode vocabulary with the service
/// conditions (overload, drain) that only exist once requests queue.
enum class Code {
  kOk = 0,        ///< full-quality result
  kDegraded,      ///< valid result, but a budget valve or cascade fired
  kInvalidInput,  ///< malformed frame/JSON/request or bad KISS2 machine
  kOverloaded,    ///< admission refused; retry after `retry_after_ms`
  kDraining,      ///< daemon is shutting down; retry against another one
  kNotFound,      ///< verify: no stored scheme under this key
  kInternal,      ///< unexpected server-side failure
};

const char* to_string(Code code);

/// Operations the daemon accepts.
///   protect — run (or serve from cache) the bounded-latency CED pipeline
///   verify  — re-prove a stored scheme against a fresh synthesis
///   sweep   — shared-extraction sweep over several latency bounds
///   health  — liveness/readiness probe (answered even while draining)
///   metrics — Prometheus text snapshot (also scrapable over HTTP)
struct Request {
  std::string op;          ///< protect | verify | sweep | health | metrics
  std::string id;          ///< client token, echoed verbatim in the response
  std::string tenant;      ///< fair-queueing key ("" = shared default lane)
  std::string kiss;        ///< KISS2 machine text (protect/verify/sweep)
  int latency = 2;
  std::vector<int> latencies;  ///< sweep only
  std::string solver = "lp";       ///< lp | greedy | exact
  std::string encoding = "binary"; ///< binary | gray | onehot | spread
  std::string semantics = "impl";  ///< impl | machine
  std::uint64_t seed = 0;          ///< 0 = library default
  double deadline_ms = 0;  ///< per-request budget; 0 = server default

  /// Worker threads for this request (protect/sweep; common/exec.hpp):
  /// 0 = server default; values above the server's threads_per_request
  /// cap are clamped to it. Pinned ambiently around this request's run
  /// only — results do not depend on it, so it does not enter the
  /// dedup/cache key, and two concurrent requests with different counts
  /// never observe each other.
  int threads = 0;
};

/// Validates and extracts a request from a parsed JSON document. Unknown
/// keys are ignored (forward compatibility — and backward: clients that
/// still send the retired `kernel`/`lp` fields keep working); wrong types
/// and missing required fields are kInvalidInput with a field-naming
/// message.
Result<Request> parse_request(const Json& doc);

/// Serializes a request (client side).
std::string encode_request(const Request& req);

/// One latency level of a sweep response.
struct SweepEntry {
  int latency = 0;
  int q = 0;
  std::vector<std::uint64_t> parities;
  bool degraded = false;
};

struct Response {
  std::string id;
  Code code = Code::kOk;
  std::string error;        ///< human detail when code != kOk/kDegraded
  double retry_after_ms = 0;  ///< backoff hint (kOverloaded/kDraining)

  // protect / verify / sweep payload
  int latency = 0;
  int q = 0;
  std::vector<std::uint64_t> parities;
  std::vector<SweepEntry> sweep;
  bool cached = false;     ///< served from the artifact store, no pipeline
  bool deduped = false;    ///< coalesced onto an identical in-flight run
  bool degraded = false;   ///< resilience report had degradations
  double t_extract_s = 0, t_solve_s = 0;

  // verify payload: the campaign's activations, and its late and silent
  // episodes plus false alarms
  std::uint64_t activations = 0, violations = 0;

  // health payload
  std::string state;       ///< "ready" | "draining"
  int workers = 0;
  int queued = 0;
  int active = 0;

  // metrics payload
  std::string prometheus;
};

std::string encode_response(const Response& resp);

/// Parses a response document (client side).
Result<Response> parse_response(const Json& doc);

/// Ready-made structured error response (shared by every rejection path so
/// even a half-parsed request gets a well-formed frame back).
Response error_response(Code code, std::string detail,
                        const std::string& id = "",
                        double retry_after_ms = 0);

}  // namespace ced::serve
