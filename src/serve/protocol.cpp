#include "serve/protocol.hpp"

#include <cmath>

#include "obs/json.hpp"

namespace ced::serve {

const char* to_string(Code code) {
  switch (code) {
    case Code::kOk: return "ok";
    case Code::kDegraded: return "degraded";
    case Code::kInvalidInput: return "invalid-input";
    case Code::kOverloaded: return "overloaded";
    case Code::kDraining: return "draining";
    case Code::kNotFound: return "not-found";
    case Code::kInternal: return "internal";
  }
  return "?";
}

namespace {

Status bad(const std::string& what) {
  return Status::invalid_input(Stage::kParse, what);
}

/// Integer extraction with range check (JSON numbers are doubles).
Result<std::int64_t> int_field(const Json& v, const char* name,
                               std::int64_t lo, std::int64_t hi) {
  const double d = v.num_or(NAN);
  if (!std::isfinite(d) || d != std::floor(d)) {
    return bad(std::string("field '") + name + "' must be an integer");
  }
  if (d < static_cast<double>(lo) || d > static_cast<double>(hi)) {
    return bad(std::string("field '") + name + "' out of range");
  }
  return static_cast<std::int64_t>(d);
}

void append_kv(std::string& out, const char* key, const std::string& value,
               bool* first) {
  if (!*first) out += ',';
  *first = false;
  out += '"';
  out += key;
  out += "\":\"";
  out += obs::json_escape(value);
  out += '"';
}

void append_kv(std::string& out, const char* key, double value, bool* first) {
  if (!*first) out += ',';
  *first = false;
  out += '"';
  out += key;
  out += "\":";
  out += obs::json_number(value);
}

void append_kv_int(std::string& out, const char* key, std::int64_t value,
                   bool* first) {
  if (!*first) out += ',';
  *first = false;
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(value);
}

void append_kv(std::string& out, const char* key, bool value, bool* first) {
  if (!*first) out += ',';
  *first = false;
  out += '"';
  out += key;
  out += "\":";
  out += value ? "true" : "false";
}

void append_parities(std::string& out, const char* key,
                     const std::vector<std::uint64_t>& parities, bool* first) {
  if (!*first) out += ',';
  *first = false;
  out += '"';
  out += key;
  out += "\":[";
  // Parity masks travel as hex strings: JSON numbers are doubles and lose
  // bits above 2^53, which would silently corrupt wide masks.
  for (std::size_t i = 0; i < parities.size(); ++i) {
    if (i != 0) out += ',';
    char buf[24];
    std::snprintf(buf, sizeof(buf), "\"0x%llx\"",
                  static_cast<unsigned long long>(parities[i]));
    out += buf;
  }
  out += ']';
}

Result<std::vector<std::uint64_t>> parse_parities(const Json& arr,
                                                  const char* name) {
  if (!arr.is_array()) {
    return bad(std::string("field '") + name + "' must be an array");
  }
  std::vector<std::uint64_t> out;
  out.reserve(arr.items().size());
  for (const Json& item : arr.items()) {
    const std::string s = item.str_or("");
    if (s.rfind("0x", 0) != 0 || s.size() < 3 || s.size() > 18) {
      return bad(std::string("field '") + name +
                 "' entries must be 0x-hex strings");
    }
    std::uint64_t v = 0;
    for (std::size_t i = 2; i < s.size(); ++i) {
      const char c = s[i];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<std::uint64_t>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint64_t>(c - 'a' + 10);
      else return bad(std::string("field '") + name + "' has a bad hex digit");
    }
    out.push_back(v);
  }
  return out;
}

}  // namespace

Result<Request> parse_request(const Json& doc) {
  if (!doc.is_object()) {
    return bad("request must be a JSON object");
  }
  Request req;
  const Json* op = doc.get("op");
  if (op == nullptr || !op->is_string()) {
    return bad("missing required string field 'op'");
  }
  req.op = op->str_or("");
  if (req.op != "protect" && req.op != "verify" && req.op != "sweep" &&
      req.op != "health" && req.op != "metrics") {
    return bad("unknown op '" + req.op + "'");
  }
  if (const Json* v = doc.get("id")) {
    if (!v->is_string()) return bad("field 'id' must be a string");
    req.id = v->str_or("");
    if (req.id.size() > 256) return bad("field 'id' too long");
  }
  if (const Json* v = doc.get("tenant")) {
    if (!v->is_string()) return bad("field 'tenant' must be a string");
    req.tenant = v->str_or("");
    if (req.tenant.size() > 256) return bad("field 'tenant' too long");
  }
  if (const Json* v = doc.get("deadline_ms")) {
    const double d = v->num_or(NAN);
    if (!std::isfinite(d) || d < 0) {
      return bad("field 'deadline_ms' must be a non-negative number");
    }
    req.deadline_ms = d;
  }
  const bool needs_machine =
      req.op == "protect" || req.op == "verify" || req.op == "sweep";
  if (!needs_machine) return req;

  const Json* kiss = doc.get("kiss");
  if (kiss == nullptr || !kiss->is_string()) {
    return bad("op '" + req.op + "' requires string field 'kiss'");
  }
  req.kiss = kiss->str_or("");
  if (req.kiss.empty()) return bad("field 'kiss' must not be empty");

  if (const Json* v = doc.get("latency")) {
    auto n = int_field(*v, "latency", 1, 64);
    if (!n) return n.status();
    req.latency = static_cast<int>(*n);
  }
  if (const Json* v = doc.get("latencies")) {
    if (!v->is_array() || v->items().empty()) {
      return bad("field 'latencies' must be a non-empty array");
    }
    if (v->items().size() > 64) return bad("field 'latencies' too long");
    for (const Json& item : v->items()) {
      auto n = int_field(item, "latencies", 1, 64);
      if (!n) return n.status();
      req.latencies.push_back(static_cast<int>(*n));
    }
  }
  if (req.op == "sweep" && req.latencies.empty()) {
    return bad("op 'sweep' requires field 'latencies'");
  }
  if (const Json* v = doc.get("solver")) {
    req.solver = v->str_or("");
    if (req.solver != "lp" && req.solver != "greedy" && req.solver != "exact") {
      return bad("field 'solver' must be lp|greedy|exact");
    }
  }
  if (const Json* v = doc.get("encoding")) {
    req.encoding = v->str_or("");
    if (req.encoding != "binary" && req.encoding != "gray" &&
        req.encoding != "onehot" && req.encoding != "spread") {
      return bad("field 'encoding' must be binary|gray|onehot|spread");
    }
  }
  if (const Json* v = doc.get("semantics")) {
    req.semantics = v->str_or("");
    if (req.semantics != "impl" && req.semantics != "machine") {
      return bad("field 'semantics' must be impl|machine");
    }
  }
  if (const Json* v = doc.get("seed")) {
    auto n = int_field(*v, "seed", 0, (std::int64_t{1} << 53) - 1);
    if (!n) return n.status();
    req.seed = static_cast<std::uint64_t>(*n);
  }
  if (const Json* v = doc.get("threads")) {
    auto n = int_field(*v, "threads", 0, 4096);
    if (!n) return n.status();
    req.threads = static_cast<int>(*n);
  }
  return req;
}

std::string encode_request(const Request& req) {
  std::string out = "{";
  bool first = true;
  append_kv(out, "op", req.op, &first);
  if (!req.id.empty()) append_kv(out, "id", req.id, &first);
  if (!req.tenant.empty()) append_kv(out, "tenant", req.tenant, &first);
  if (req.deadline_ms > 0) {
    append_kv(out, "deadline_ms", req.deadline_ms, &first);
  }
  if (!req.kiss.empty()) {
    append_kv(out, "kiss", req.kiss, &first);
    append_kv_int(out, "latency", req.latency, &first);
    if (!req.latencies.empty()) {
      if (!first) out += ',';
      first = false;
      out += "\"latencies\":[";
      for (std::size_t i = 0; i < req.latencies.size(); ++i) {
        if (i != 0) out += ',';
        out += std::to_string(req.latencies[i]);
      }
      out += ']';
    }
    append_kv(out, "solver", req.solver, &first);
    append_kv(out, "encoding", req.encoding, &first);
    append_kv(out, "semantics", req.semantics, &first);
    if (req.seed != 0) {
      append_kv_int(out, "seed", static_cast<std::int64_t>(req.seed), &first);
    }
    if (req.threads > 0) append_kv_int(out, "threads", req.threads, &first);
  }
  out += '}';
  return out;
}

std::string encode_response(const Response& resp) {
  std::string out = "{";
  bool first = true;
  append_kv(out, "id", resp.id, &first);
  append_kv(out, "status", std::string(to_string(resp.code)), &first);
  if (!resp.error.empty()) append_kv(out, "error", resp.error, &first);
  if (resp.retry_after_ms > 0) {
    append_kv(out, "retry_after_ms", resp.retry_after_ms, &first);
  }
  if (resp.code == Code::kOk || resp.code == Code::kDegraded) {
    if (resp.latency > 0 || resp.q > 0 || !resp.parities.empty()) {
      append_kv_int(out, "latency", resp.latency, &first);
      append_kv_int(out, "q", resp.q, &first);
      append_parities(out, "parities", resp.parities, &first);
      append_kv(out, "cached", resp.cached, &first);
      append_kv(out, "deduped", resp.deduped, &first);
      append_kv(out, "degraded", resp.degraded, &first);
      append_kv(out, "t_extract_s", resp.t_extract_s, &first);
      append_kv(out, "t_solve_s", resp.t_solve_s, &first);
    }
    if (!resp.sweep.empty()) {
      if (!first) out += ',';
      first = false;
      out += "\"sweep\":[";
      for (std::size_t i = 0; i < resp.sweep.size(); ++i) {
        const SweepEntry& e = resp.sweep[i];
        if (i != 0) out += ',';
        out += "{\"latency\":" + std::to_string(e.latency) +
               ",\"q\":" + std::to_string(e.q) + ",";
        bool efirst = true;
        append_parities(out, "parities", e.parities, &efirst);
        append_kv(out, "degraded", e.degraded, &efirst);
        out += '}';
      }
      out += ']';
    }
    if (resp.activations > 0 || resp.violations > 0) {
      append_kv_int(out, "activations",
                    static_cast<std::int64_t>(resp.activations), &first);
      append_kv_int(out, "violations",
                    static_cast<std::int64_t>(resp.violations), &first);
    }
    if (!resp.state.empty()) {
      append_kv(out, "state", resp.state, &first);
      append_kv_int(out, "workers", resp.workers, &first);
      append_kv_int(out, "queued", resp.queued, &first);
      append_kv_int(out, "active", resp.active, &first);
    }
    if (!resp.prometheus.empty()) {
      append_kv(out, "prometheus", resp.prometheus, &first);
    }
  }
  out += '}';
  return out;
}

Result<Response> parse_response(const Json& doc) {
  if (!doc.is_object()) return bad("response must be a JSON object");
  Response resp;
  const Json* status = doc.get("status");
  if (status == nullptr || !status->is_string()) {
    return bad("missing required string field 'status'");
  }
  const std::string code = status->str_or("");
  if (code == "ok") resp.code = Code::kOk;
  else if (code == "degraded") resp.code = Code::kDegraded;
  else if (code == "invalid-input") resp.code = Code::kInvalidInput;
  else if (code == "overloaded") resp.code = Code::kOverloaded;
  else if (code == "draining") resp.code = Code::kDraining;
  else if (code == "not-found") resp.code = Code::kNotFound;
  else if (code == "internal") resp.code = Code::kInternal;
  else return bad("unknown status '" + code + "'");

  if (const Json* v = doc.get("id")) resp.id = v->str_or("");
  if (const Json* v = doc.get("error")) resp.error = v->str_or("");
  if (const Json* v = doc.get("retry_after_ms")) {
    resp.retry_after_ms = v->num_or(0);
  }
  if (const Json* v = doc.get("latency")) {
    resp.latency = static_cast<int>(v->num_or(0));
  }
  if (const Json* v = doc.get("q")) resp.q = static_cast<int>(v->num_or(0));
  if (const Json* v = doc.get("parities")) {
    auto p = parse_parities(*v, "parities");
    if (!p) return p.status();
    resp.parities = std::move(*p);
  }
  if (const Json* v = doc.get("sweep")) {
    if (!v->is_array()) return bad("field 'sweep' must be an array");
    for (const Json& item : v->items()) {
      SweepEntry e;
      e.latency = static_cast<int>(item.get("latency") != nullptr
                                       ? item.get("latency")->num_or(0)
                                       : 0);
      e.q = static_cast<int>(
          item.get("q") != nullptr ? item.get("q")->num_or(0) : 0);
      if (const Json* p = item.get("parities")) {
        auto masks = parse_parities(*p, "sweep.parities");
        if (!masks) return masks.status();
        e.parities = std::move(*masks);
      }
      if (const Json* d = item.get("degraded")) e.degraded = d->bool_or(false);
      resp.sweep.push_back(std::move(e));
    }
  }
  if (const Json* v = doc.get("cached")) resp.cached = v->bool_or(false);
  if (const Json* v = doc.get("deduped")) resp.deduped = v->bool_or(false);
  if (const Json* v = doc.get("degraded")) resp.degraded = v->bool_or(false);
  if (const Json* v = doc.get("t_extract_s")) resp.t_extract_s = v->num_or(0);
  if (const Json* v = doc.get("t_solve_s")) resp.t_solve_s = v->num_or(0);
  if (const Json* v = doc.get("activations")) {
    resp.activations = static_cast<std::uint64_t>(v->num_or(0));
  }
  if (const Json* v = doc.get("violations")) {
    resp.violations = static_cast<std::uint64_t>(v->num_or(0));
  }
  if (const Json* v = doc.get("state")) resp.state = v->str_or("");
  if (const Json* v = doc.get("workers")) {
    resp.workers = static_cast<int>(v->num_or(0));
  }
  if (const Json* v = doc.get("queued")) {
    resp.queued = static_cast<int>(v->num_or(0));
  }
  if (const Json* v = doc.get("active")) {
    resp.active = static_cast<int>(v->num_or(0));
  }
  if (const Json* v = doc.get("prometheus")) resp.prometheus = v->str_or("");
  return resp;
}

Response error_response(Code code, std::string detail, const std::string& id,
                        double retry_after_ms) {
  Response resp;
  resp.id = id;
  resp.code = code;
  resp.error = std::move(detail);
  resp.retry_after_ms = retry_after_ms;
  return resp;
}

}  // namespace ced::serve
