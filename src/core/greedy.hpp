#pragma once

#include <cstdint>
#include <vector>

#include "core/parity.hpp"
#include "core/resilience.hpp"
#include "obs/trace.hpp"

namespace ced::core {

/// Options for the greedy / local-search baseline solver.
struct GreedyOptions {
  /// Random restarts per selected parity function (in addition to the
  /// deterministic single-bit and all-ones starting points).
  int restarts = 8;
  /// Candidate search runs on at most this many still-uncovered cases at a
  /// time; the final solution is always verified (and extended) against the
  /// full table, so sampling affects only speed/quality, never coverage.
  std::size_t sample_cap = 20'000;
  std::uint64_t seed = 0x5eed;
  /// Wall-clock budget. On expiry the hill climbing stops and the
  /// still-uncovered cases are closed out with single-bit functions (one
  /// per needed observable bit), so the solver always terminates with a
  /// complete — if larger — cover.
  Deadline deadline;
  /// Observability sinks (a span per greedy_cover call plus hill-climb
  /// counters). Write-only diagnostics: the selected functions are
  /// byte-identical with sinks set or null.
  obs::Sinks obs;
};

/// Diagnostics for the resilience layer.
struct GreedyStats {
  bool deadline_hit = false;
  /// Parity functions appended by the single-bit close-out.
  int single_bit_completions = 0;
  /// Hill climbs executed (one per starting point considered).
  std::uint64_t climbs = 0;
};

class CoverKernel;

/// Greedy set-cover style baseline: repeatedly picks the parity function
/// covering the most still-uncovered erroneous cases, where each candidate
/// is found by hill-climbing over bit flips from several starting points.
/// Always returns a complete cover (single-bit functions guarantee
/// progress: diff[0] of every case is nonzero, so some bit of step 1
/// detects it... more precisely, any bit set in diff[0] gives odd overlap
/// when chosen alone).
///
/// The hill climbs run on the bit-sliced kernel (delta evaluation: one
/// column XOR per flipped bit). `full_kernel` optionally reuses a
/// caller-held full-table kernel (else one is built internally).
std::vector<ParityFunc> greedy_cover(const DetectabilityTable& table,
                                     const GreedyOptions& opts = {},
                                     GreedyStats* stats = nullptr,
                                     const CoverKernel* full_kernel = nullptr);

}  // namespace ced::core
