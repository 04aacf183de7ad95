#pragma once
// Typed value binders for description tables: the experiment config's key
// table (testbed/config_file.cpp) and the per-kind field tables of fault
// events (fault/spec.cpp). A row names a field and its Opts; the field's type
// picks the binder that parses one value text into it, checks a value
// against the row's bounds, and renders it back: a duration or time point
// with a lower bound, a finite real or unsigned integer in [lo, hi], a bool,
// one of two enum names, or a text. Parsing ends in the check, so a value
// built in code and one read from text meet the same bounds with the same
// error: "<domain>: bad <name>" or "<domain>: <name> out of range [lo, hi]".

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "sim/number.hpp"
#include "sim/time.hpp"

namespace mgap::sim {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Rows render on every configuration, or only off the default value.
enum class Show { kAlways, kOffDefault };

/// How a typed row checks and spells its value.
struct Opts {
  Show show{Show::kAlways};
  double lo{0};      // bounds; durations in ns. Signed rows set lo = -kInf.
  double hi{kInf};   // infinite: no range to state, a violation is "bad"
  bool open_lo{false};
  /// Enum and two-word flag rows: the spellings of values 0 and 1. Duration
  /// rows: two words that also mean zero. Text rows: two words that mean
  /// the empty text.
  std::array<std::string_view, 2> names{};
};

namespace detail {

[[noreturn]] inline void bad(std::string_view domain, std::string_view name) {
  throw std::runtime_error{std::string(domain) + ": bad " + std::string(name)};
}

/// Throws unless `v` is finite and lies within the bounds; `spell` writes a
/// bound.
template <class Spell>
void check_bounds(double v, const Opts& o, std::string_view domain, std::string_view name,
                  Spell spell) {
  if (std::isfinite(v) && v >= o.lo && v <= o.hi && !(o.open_lo && v == o.lo)) return;
  if (std::isnan(v) || o.hi == kInf) bad(domain, name);
  throw std::runtime_error{std::string(domain) + ": " + std::string(name) + " out of range " +
                           (o.open_lo ? "(" : "[") + spell(o.lo) + ", " + spell(o.hi) + "]"};
}

}  // namespace detail

/// Throws std::runtime_error naming `domain` and `name` unless `field` meets
/// `o`; allocates only to throw.
template <class T>
void check_value(const T& field, const Opts& o, std::string_view domain, std::string_view name) {
  if constexpr (std::is_same_v<T, Duration> || std::is_same_v<T, TimePoint>) {
    const std::int64_t ns = field.count_ns();
    // A negative duration is a sign error, not a range error.
    if (ns < 0 && o.lo >= 0) detail::bad(domain, name);
    detail::check_bounds(static_cast<double>(ns), o, domain, name, [](double b) {
      return Duration::ns(static_cast<std::int64_t>(b)).str();
    });
  } else if constexpr (std::is_same_v<T, double>) {
    detail::check_bounds(field, o, domain, name, format_real);
  } else if constexpr (std::is_same_v<T, std::string>) {
    // Any text.
  } else if (!o.names[0].empty()) {
    if (static_cast<std::uint64_t>(field) > 1) detail::bad(domain, name);
  } else if constexpr (std::is_integral_v<T>) {
    detail::check_bounds(static_cast<double>(field), o, domain, name,
                         [](double b) { return std::to_string(static_cast<std::uint64_t>(b)); });
  }
}

/// Parses `v` into `field` under `o`; throws std::runtime_error naming
/// `domain` and `name` on a malformed or out-of-bounds value, and then
/// leaves `field` as it was.
template <class T>
void parse_value(T& field, std::string_view v, const Opts& o, std::string_view domain,
                 std::string_view name) {
  const auto& names = o.names;
  const bool named = !names[0].empty() && (v == names[0] || v == names[1]);
  T value{};
  if constexpr (std::is_same_v<T, Duration> || std::is_same_v<T, TimePoint>) {
    const auto d = named ? Duration{} : parse_duration(v);
    if (!d) detail::bad(domain, name);
    value += *d;
  } else if constexpr (std::is_same_v<T, double>) {
    const auto n = parse_real(v);
    if (!n) detail::bad(domain, name);
    value = *n;
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!named) value = v;
  } else if (!names[0].empty()) {
    if (!named) {
      throw std::runtime_error{std::string(domain) + ": unknown " + std::string(name) + " '" +
                               std::string(v) + "' (" + std::string(names[0]) + "|" +
                               std::string(names[1]) + ")"};
    }
    value = static_cast<T>(v == names[1]);
  } else if constexpr (std::is_same_v<T, bool>) {
    value = v == "true" || v == "yes" || v == "1";
    if (!value && v != "false" && v != "no" && v != "0") {
      throw std::runtime_error{std::string(domain) + ": bad boolean for '" + std::string(name) +
                               "'"};
    }
  } else if constexpr (std::is_integral_v<T>) {
    const auto n = parse_uint(v);
    if (!n || *n > std::numeric_limits<T>::max()) detail::bad(domain, name);
    value = static_cast<T>(*n);
  }
  check_value(value, o, domain, name);
  field = std::move(value);
}

/// The text parse_value reads back to `field`.
template <class T>
std::string format_value(const T& field, const Opts& o) {
  if constexpr (std::is_same_v<T, Duration>) {
    return field.str();
  } else if constexpr (std::is_same_v<T, TimePoint>) {
    return field.since_origin().str();
  } else if constexpr (std::is_same_v<T, double>) {
    return format_real(field);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return field;
  } else if (!o.names[0].empty()) {
    return std::string(o.names[static_cast<std::size_t>(field)]);
  } else if constexpr (std::is_same_v<T, bool>) {
    return field ? "true" : "false";
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_string(field);
  }
  return {};
}

/// Parses "A<sep>B" into two fields under the same bounds (`link=2-5`,
/// `topo.rooms = 4x3`).
template <class T>
void parse_pair(T& a, T& b, char sep, std::string_view v, const Opts& o, std::string_view domain,
                std::string_view name) {
  const auto at = v.find(sep);
  if (at == std::string_view::npos) detail::bad(domain, name);
  parse_value(a, v.substr(0, at), o, domain, name);
  parse_value(b, v.substr(at + 1), o, domain, name);
}

}  // namespace mgap::sim
