#pragma once

// Name tables for the enums users spell: CLI flags, serve request fields
// and stored scheme names. Each enum keeps one table next to its
// definition, and every parser and printer goes through it, so a name
// cannot be accepted in one place and rejected, or mapped differently, in
// another.

#include <array>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace ced {

template <typename E>
struct EnumName {
  std::string_view name;
  E value;
};

template <typename E, std::size_t N>
using NameTable = std::array<EnumName<E>, N>;

/// The value `name` spells in `table`; nullopt for an unknown name.
template <typename E, std::size_t N>
constexpr std::optional<E> enum_from_name(const NameTable<E, N>& table,
                                          std::string_view name) {
  for (const EnumName<E>& e : table) {
    if (e.name == name) return e.value;
  }
  return std::nullopt;
}

/// The name of `value` in `table`; empty when the table lacks it.
template <typename E, std::size_t N>
constexpr std::string_view name_of(const NameTable<E, N>& table, E value) {
  for (const EnumName<E>& e : table) {
    if (e.value == value) return e.name;
  }
  return {};
}

/// The table's names in order, joined by '|' (for error messages).
template <typename E, std::size_t N>
std::string names_joined(const NameTable<E, N>& table) {
  std::string out;
  for (const EnumName<E>& e : table) {
    if (!out.empty()) out += '|';
    out += e.name;
  }
  return out;
}

}  // namespace ced
