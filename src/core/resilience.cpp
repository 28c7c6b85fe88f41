#include "core/resilience.hpp"

#include <cstdio>

namespace ced::core {

const char* to_string(CascadeLevel level) {
  switch (level) {
    case CascadeLevel::kLpRounding: return "lp+rounding";
    case CascadeLevel::kGreedy: return "greedy";
    case CascadeLevel::kDuplication: return "duplication-floor";
  }
  return "?";
}

std::string ResilienceReport::summary() const {
  if (!degraded() && store_events.empty()) return {};
  std::string out;
  if (!degraded()) {
    // Store incidents without any quality degradation: audit lines only.
    for (const auto& e : store_events) {
      out += "  [store] " + e + "\n";
    }
    return out;
  }
  out += "resilience: ";
  out += status.ok() ? "degraded" : status.to_text();
  out += " (solver ";
  out += to_string(solver_requested);
  if (solver_used != solver_requested) {
    out += " -> ";
    out += to_string(solver_used);
  }
  out += ")";
  if (extraction_truncated) out += " [extraction truncated]";
  if (table_strengthened) out += " [table strengthened]";
  out += "\n";
  for (const auto& e : events) {
    char line[160];
    std::snprintf(line, sizeof(line), "  [%s] %s: %s (t=%.3fs, cases=%zu)\n",
                  ced::to_string(e.stage), ced::to_string(e.reason),
                  e.detail.c_str(), e.seconds, e.cases_seen);
    out += line;
  }
  for (const auto& e : store_events) {
    out += "  [store] " + e + "\n";
  }
  return out;
}

}  // namespace ced::core
