#pragma once

// Wire layer of the ced_serve protocol: length-prefixed JSON frames over a
// stream socket, plus the strict little JSON reader both ends share.
//
// Frame format (DESIGN.md §12):
//
//   +----------------+---------------------+
//   | length N (u32, | N bytes of UTF-8    |
//   | big-endian)    | JSON (one document) |
//   +----------------+---------------------+
//
// One request document per frame, one response document per frame. The
// length prefix is bounded (kDefaultMaxFrameBytes in the daemon and the
// client): a prefix above the bound is rejected *before* any allocation, so a
// malicious or corrupt 4-byte header cannot make the daemon reserve
// gigabytes. Payloads must be valid UTF-8 and one complete JSON value;
// anything else earns a structured kInvalidInput response, never a crash.
//
// The JSON reader is deliberately strict and small: objects, arrays,
// strings (with escapes), finite numbers, booleans, null; depth-limited;
// whole-payload UTF-8 validation; no extensions (no comments, no trailing
// commas, no NaN). Strictness is the first line of the daemon's
// malformed-input hardening — see tests/test_serve.cpp.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace ced::serve {

/// Default cap on one frame's payload (8 MiB holds any realistic KISS2
/// machine with two orders of magnitude to spare).
inline constexpr std::size_t kDefaultMaxFrameBytes = 8u << 20;

// ---------------------------------------------------------------- JSON

/// One parsed JSON value. Object member order is preserved (useful for
/// deterministic re-serialization in tests); lookups are linear, which is
/// fine at protocol scale.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_bool() const { return type_ == Type::kBool; }

  /// Member lookup; nullptr when absent or not an object.
  const Json* get(std::string_view key) const;

  /// Typed accessors with defaults (never throw; wrong type = default).
  std::string str_or(std::string fallback) const;
  double num_or(double fallback) const;
  bool bool_or(bool fallback) const;
  const std::vector<Json>& items() const { return items_; }

  /// Strict parse of one complete JSON document. Enforces: valid UTF-8
  /// over the whole payload, nesting depth <= 64, no bytes after the
  /// value. Errors carry kInvalidInput with a position-tagged message.
  static Result<Json> parse(std::string_view text);

 private:
  friend class JsonParser;
  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> items_;                                // arrays
  std::vector<std::pair<std::string, Json>> members_;      // objects
};

/// True iff `s` is well-formed UTF-8 (rejects overlongs, surrogates,
/// out-of-range code points, and truncated sequences).
bool valid_utf8(std::string_view s);

// -------------------------------------------------------------- frames

/// How one read_frame() call ended.
enum class FrameStatus {
  kOk = 0,    ///< one complete frame in `out`
  kClosed,    ///< clean EOF on a frame boundary (peer finished)
  kTorn,      ///< EOF or error mid-frame (peer died / chaos truncation)
  kTooLarge,  ///< length prefix exceeds the bound; nothing was read past it
};

/// Blocking read of one frame from a stream socket. `max_bytes` bounds the
/// declared payload length (checked before allocating). On kTooLarge the
/// connection is no longer frame-aligned and must be closed after the
/// error response.
FrameStatus read_frame(int fd, std::string& out,
                       std::size_t max_bytes = kDefaultMaxFrameBytes);

/// Blocking write of one frame (length prefix + payload). Uses
/// MSG_NOSIGNAL so a peer that vanished mid-write surfaces as a Status,
/// not SIGPIPE.
Status write_frame(int fd, std::string_view payload);

}  // namespace ced::serve
