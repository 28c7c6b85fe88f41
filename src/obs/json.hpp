#pragma once

// Minimal JSON string/number formatting shared by the obs exporters, the
// serve protocol, the campaign report and bench_perf, so every JSON
// emitter in the tree escapes identically.

#include <string>
#include <string_view>

namespace ced::obs {

/// Escapes `s` for use inside a double-quoted JSON string (quotes,
/// backslash, and control characters; everything else passes through).
std::string json_escape(std::string_view s);

/// Formats a finite double in the shortest form that reads back as the
/// same double (std::to_chars: 1.5, 3, 1.3e-05); NaN/Inf become
/// "null" so the emitted document always parses.
std::string json_number(double v);

}  // namespace ced::obs
