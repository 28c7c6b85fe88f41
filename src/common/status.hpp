#pragma once

#include <string>
#include <utility>

namespace ced {

/// Machine-readable classification of how an operation ended. Every stage
/// of the pipeline reports one of these instead of throwing (or silently
/// breaking) when it runs out of budget or meets bad input, so oversized
/// instances degrade instead of killing a whole sweep.
enum class StatusCode {
  kOk = 0,       ///< completed fully
  kTruncated,    ///< budget exhausted; result is partial but honest
  kInfeasible,   ///< no solution exists within the stated constraints
  kInvalidInput, ///< malformed or out-of-contract input
  kInternal,     ///< unexpected failure (a bug or resource exhaustion)
};

/// Pipeline stage that produced a status (for diagnostics and reports).
/// Run manifests store these numbers as one byte each
/// (storage/format.cpp), so they are fixed: 7 was the retired exact
/// solver's stage and stays unused, and a manifest an old exact run stored
/// still decodes.
enum class Stage {
  kNone = 0,
  kParse = 1,
  kSynth = 2,
  kExtract = 3,
  kLp = 4,
  kRounding = 5,
  kGreedy = 6,
  kCedSynth = 8,
  kVerify = 9,
  kPipeline = 10,
  kStore = 11,
};

inline const char* to_string(StatusCode c) {
  switch (c) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kTruncated: return "truncated";
    case StatusCode::kInfeasible: return "infeasible";
    case StatusCode::kInvalidInput: return "invalid-input";
    case StatusCode::kInternal: return "internal-error";
  }
  return "?";
}

inline const char* to_string(Stage s) {
  switch (s) {
    case Stage::kNone: return "none";
    case Stage::kParse: return "parse";
    case Stage::kSynth: return "synth";
    case Stage::kExtract: return "extract";
    case Stage::kLp: return "lp";
    case Stage::kRounding: return "rounding";
    case Stage::kGreedy: return "greedy";
    case Stage::kCedSynth: return "ced-synth";
    case Stage::kVerify: return "verify";
    case Stage::kPipeline: return "pipeline";
    case Stage::kStore: return "store";
  }
  return "?";
}

/// Error code + originating stage + human message. Statuses compose: a
/// degraded-but-successful run carries kTruncated, a crash-free rejection
/// of bad input carries kInvalidInput.
struct Status {
  StatusCode code = StatusCode::kOk;
  Stage stage = Stage::kNone;
  std::string message;

  bool ok() const { return code == StatusCode::kOk; }

  static Status make_ok() { return {}; }
  static Status truncated(Stage st, std::string msg) {
    return {StatusCode::kTruncated, st, std::move(msg)};
  }
  static Status infeasible(Stage st, std::string msg) {
    return {StatusCode::kInfeasible, st, std::move(msg)};
  }
  static Status invalid_input(Stage st, std::string msg) {
    return {StatusCode::kInvalidInput, st, std::move(msg)};
  }
  static Status internal(Stage st, std::string msg) {
    return {StatusCode::kInternal, st, std::move(msg)};
  }

  /// "stage: code: message" one-liner for logs and CLI stderr.
  std::string to_text() const {
    std::string out = to_string(stage);
    out += ": ";
    out += to_string(code);
    if (!message.empty()) {
      out += ": ";
      out += message;
    }
    return out;
  }
};

/// Value-or-status result. Deliberately small: either holds a T (status
/// ok or truncated — partial results are values too) or only a Status.
template <typename T>
class Result {
 public:
  Result(T value)  // NOLINT(google-explicit-constructor)
      : has_value_(true), value_(std::move(value)) {}
  Result(Status status) : status_(std::move(status)) {}  // NOLINT
  Result(T value, Status status)
      : has_value_(true), value_(std::move(value)), status_(std::move(status)) {}

  bool has_value() const { return has_value_; }
  explicit operator bool() const { return has_value_; }

  const Status& status() const { return status_; }
  T& value() { return value_; }
  const T& value() const { return value_; }
  T& operator*() { return value_; }
  const T& operator*() const { return value_; }
  T* operator->() { return &value_; }
  const T* operator->() const { return &value_; }

 private:
  bool has_value_ = false;
  T value_{};
  Status status_{};
};

}  // namespace ced
