#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace ced::core {

/// Cooperative resource budget for one pipeline run. Every limit is a soft
/// valve checked inside the stage's own loop (EC-extraction DFS, simplex
/// pivoting, rounding retries, greedy hill climbing): when it trips, the stage
/// stops where it is and returns partial-but-honest results with a
/// truncation status instead of throwing. Zero means "no limit here"
/// (stage-level defaults still apply).
struct RunBudget {
  /// Wall-clock budget for the whole run, shared by all stages. Finite:
  /// RunConfig::Builder::build() refuses NaN and infinity.
  double wall_seconds = 0.0;
  /// Cap on erroneous cases per detectability table, counted in each
  /// extraction shard (one shard per thread without a store,
  /// PipelineOptions::checkpoint_shards with one); overrides
  /// ExtractOptions::max_cases when nonzero.
  std::size_t max_cases = 0;
  /// Cap on simplex iterations per LP solve.
  int max_lp_iterations = 0;
  /// Cap on randomized-rounding attempts per LP solution.
  int max_rounding_attempts = 0;

  /// Optional external interrupt channel (non-owning; must outlive the
  /// run). When the pointed-to flag becomes true, every Deadline built
  /// from this budget reports expired() at the next cooperative poll, so
  /// the run checkpoints and degrades exactly as if its wall clock had
  /// run out. This is how ced_cli turns SIGINT into a prompt checkpoint
  /// and how the ced_serve daemon drains in-flight work on SIGTERM.
  /// Deliberately not part of unlimited(): an interrupt channel is not a
  /// standing limit, and it never shapes results unless it actually fires
  /// (tripped runs report kTruncated like any other valve).
  const std::atomic<bool>* interrupt = nullptr;

  bool unlimited() const {
    return wall_seconds <= 0.0 && max_cases == 0 && max_lp_iterations == 0 &&
           max_rounding_attempts == 0;
  }
};

/// A wall-clock deadline that stages poll cooperatively. Default-constructed
/// deadlines never expire, so unlimited runs pay only a branch.
class Deadline {
 public:
  Deadline() = default;

  /// Armed `seconds` from now when seconds > 0, else unarmed. A budget
  /// past the clock's range (about 292 years of nanoseconds) saturates at
  /// time_point::max(): armed, never expires.
  static Deadline after(double seconds) {
    using Clock = std::chrono::steady_clock;
    Deadline d;
    if (!(seconds > 0.0)) return d;
    d.armed_ = true;
    const Clock::time_point now = Clock::now();
    const Clock::duration left = Clock::time_point::max() - now;
    if (seconds >= std::chrono::duration<double>(left).count()) {
      d.at_ = Clock::time_point::max();
    } else {
      // The comparison ran in doubles, which may round `left` up a tick.
      d.at_ = now + std::min(left, std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(seconds)));
    }
    return d;
  }

  /// Unlimited when the budget has no wall-clock component — unless the
  /// budget carries an interrupt flag, which arms the deadline as a pure
  /// trip wire (no time component, expires only when the flag fires).
  static Deadline from(const RunBudget& budget) {
    Deadline d = after(budget.wall_seconds);
    d.trip_ = budget.interrupt;
    return d;
  }

  bool armed() const { return armed_ || trip_ != nullptr; }
  bool expired() const {
    if (trip_ != nullptr && trip_->load(std::memory_order_relaxed)) {
      return true;
    }
    return armed_ && std::chrono::steady_clock::now() >= at_;
  }
  /// Time point for APIs that take absolute deadlines (the LP solver);
  /// time_point::max() when unarmed.
  std::chrono::steady_clock::time_point time_point() const {
    return armed_ ? at_ : std::chrono::steady_clock::time_point::max();
  }

 private:
  bool armed_ = false;
  const std::atomic<bool>* trip_ = nullptr;
  std::chrono::steady_clock::time_point at_{};
};

/// Answer-quality levels of the solver degradation cascade, best first.
/// A run that cannot finish its requested level falls to the next one;
/// the duplication-style floor (single-bit functions, the classical
/// duplicate-and-compare shape) is what greedy closes out with when time
/// runs out. Run manifests store these numbers as one byte each
/// (storage/format.cpp), so they are fixed: 0 was the retired exact level,
/// and a manifest an old exact run stored still decodes.
enum class CascadeLevel {
  kLpRounding = 1,
  kGreedy = 2,
  kDuplication = 3,
};

const char* to_string(CascadeLevel level);

/// One recorded downgrade or truncation: which stage fired, why, and how
/// much of the run had been consumed when it did.
struct FallbackEvent {
  Stage stage = Stage::kNone;
  StatusCode reason = StatusCode::kTruncated;
  std::string detail;
  double seconds = 0.0;       ///< wall-clock into the run when it fired
  std::size_t cases_seen = 0; ///< table rows available at that point
};

/// Resilience diagnostics for one pipeline report: overall classification,
/// which degradations fired, and which cascade level produced the answer.
/// `status.code == kOk` means the full-quality path ran to completion;
/// kTruncated means the result is valid for the cases actually covered but
/// some budget valve fired along the way.
struct ResilienceReport {
  Status status;
  bool extraction_truncated = false;
  bool table_strengthened = false;
  CascadeLevel solver_requested = CascadeLevel::kLpRounding;
  CascadeLevel solver_used = CascadeLevel::kLpRounding;
  std::vector<FallbackEvent> events;

  /// Artifact-store incidents (a corrupt cache file quarantined and
  /// transparently recomputed, an unwritable checkpoint, ...). Deliberately
  /// NOT part of degraded(): the store always falls back to recomputation,
  /// so the answer itself is full quality — these lines are an audit trail,
  /// not a quality downgrade.
  std::vector<std::string> store_events;

  bool degraded() const {
    return !status.ok() || extraction_truncated ||
           solver_used != solver_requested || !events.empty();
  }

  void record(Stage stage, StatusCode reason, std::string detail,
              double seconds = 0.0, std::size_t cases_seen = 0) {
    events.push_back({stage, reason, std::move(detail), seconds, cases_seen});
  }

  /// Multi-line human summary (one line per event) for CLI stderr and
  /// bench logs; empty string when nothing degraded.
  std::string summary() const;
};

}  // namespace ced::core
