#pragma once

// Command-line flags, read one way by ced_cli, ced_serve, ced_client and
// the bench harnesses. A flag is `--key=VALUE` or a bare `--switch`, and
// may sit anywhere after the program name (among a subcommand or a file
// name). A bad flag is invalid input that names it: a flag the program
// does not read (reject_unknown_flags), a number that does not parse
// whole (numeric_flag, parse_number) or a name its table lacks
// (named_flag). Each throws InvalidInputError, which the programs turn
// into exit code 2 before they open a socket, start a thread or write a
// file.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/names.hpp"

namespace ced::cli {

/// Thrown for problems in what the user handed a program (flags, files,
/// KISS2 text), so it exits 2 (invalid input) instead of taking the
/// internal-error path.
struct InvalidInputError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The value of `key=VALUE` among the arguments; nullopt when the flag is
/// absent.
inline std::optional<std::string> flag_value(int argc, char** argv,
                                             const char* key) {
  const std::size_t len = std::strlen(key);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], key, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
  }
  return std::nullopt;
}

inline std::string arg_value(int argc, char** argv, const char* key,
                             const char* fallback = "") {
  return flag_value(argc, argv, key).value_or(fallback);
}

/// The number `text`, the value of flag `key`, spells. The whole value
/// must parse, in T's range, so `--max-cases=1e6`, `--threads=four` or an
/// int flag's `4294967297` is invalid input naming the flag (as named_flag
/// does for names), not a 1-case cap, the default thread count or a
/// wrapped value. Base 0 reads a 0x prefix as hex and a leading 0
/// as octal, as strtoull does; a floating-point value must be finite.
template <typename T>
T parse_number(const char* key, std::string_view text, int base = 10) {
  std::string_view digits = text;
  if (base == 0) {
    base = 10;
    if (digits.starts_with("0x") || digits.starts_with("0X")) {
      base = 16;
      digits.remove_prefix(2);
    } else if (digits.size() > 1 && digits.front() == '0') {
      base = 8;
      digits.remove_prefix(1);
    }
  }
  T value{};
  const char* const last = digits.data() + digits.size();
  std::from_chars_result r{};
  if constexpr (std::is_floating_point_v<T>) {
    r = std::from_chars(digits.data(), last, value);
  } else {
    r = std::from_chars(digits.data(), last, value, base);
  }
  bool ok = !digits.empty() && r.ec == std::errc{} && r.ptr == last;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    const bool range = r.ec == std::errc::result_out_of_range && r.ptr == last;
    throw InvalidInputError(std::string(key) +
                            (range ? " is out of range" : " must be a number") +
                            ", got '" + std::string(text) + "'");
  }
  return value;
}

/// The number a numeric flag spells (parse_number), or `fallback` when the
/// flag is absent.
template <typename T>
T numeric_flag(int argc, char** argv, const char* key, T fallback,
               int base = 10) {
  const std::optional<std::string> text = flag_value(argc, argv, key);
  return text ? parse_number<T>(key, *text, base) : fallback;
}

inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// The flags a program (or one of its subcommands) reads. An entry ending
/// in '=' takes a value (`--latency=` matches `--latency=3`); any other
/// entry is a switch and must match exactly.
using Flags = std::span<const std::string_view>;

/// Throws InvalidInputError on the first `--...` argument that none of
/// `lists` names, so a misspelled flag is invalid input instead of a
/// silently ignored one. `program` names the reader in the message:
/// "unknown flag '<arg>' for <program>".
inline void reject_unknown_flags(int argc, char** argv,
                                 std::string_view program,
                                 std::initializer_list<Flags> lists) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--")) continue;
    bool known = false;
    for (const Flags flags : lists) {
      for (const std::string_view f : flags) {
        known = known || (f.ends_with('=') ? arg.starts_with(f) : arg == f);
      }
    }
    if (!known) {
      throw InvalidInputError("unknown flag '" + std::string(arg) + "' for " +
                              std::string(program));
    }
  }
}

/// The value a name-valued flag spells in `table`, or `fallback` when the
/// flag is absent; an unknown name is invalid input naming the flag.
template <typename E, std::size_t N>
E named_flag(int argc, char** argv, const char* key,
             const NameTable<E, N>& table, E fallback) {
  const std::string name =
      arg_value(argc, argv, key, std::string(name_of(table, fallback)).c_str());
  const std::optional<E> value = enum_from_name(table, name);
  if (!value) {
    throw InvalidInputError(std::string(key) + " must be " +
                            names_joined(table) + ", got '" + name + "'");
  }
  return *value;
}

/// `body(argc, argv)`, except that an InvalidInputError it throws prints
/// "error: <message>" on stderr and returns 2 (invalid input).
inline int run_main(int (*body)(int, char**), int argc, char** argv) {
  try {
    return body(argc, argv);
  } catch (const InvalidInputError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

}  // namespace ced::cli
