#pragma once
// Numbers and tokens in description files: trimming and splitting, strict
// parsing of a whole token, and the shortest text that parses back to the
// identical double. Config renders and campaign outputs print reals with
// format_real, so they are exact and the same on every run and thread.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mgap::sim {

/// The characters std::isspace accepts in the C locale.
inline constexpr std::string_view kSpace = " \t\n\v\f\r";

/// `s` without leading and trailing whitespace.
[[nodiscard]] inline std::string_view trim(std::string_view s) {
  const auto first = s.find_first_not_of(kSpace);
  if (first == std::string_view::npos) return {};
  return s.substr(first, s.find_last_not_of(kSpace) - first + 1);
}

/// The trimmed parts of `s` between the separators `sep`, empty ones too.
[[nodiscard]] inline std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t pos = 0;
  while (true) {
    const auto next = s.find(sep, pos);
    out.push_back(trim(s.substr(pos, next - pos)));
    if (next == std::string_view::npos) return out;
    pos = next + 1;
  }
}

[[nodiscard]] inline std::string format_real(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// The whole of `s` as a double ("nan" and "inf" included), else nullopt.
[[nodiscard]] inline std::optional<double> parse_real(std::string_view s) {
  double v{};
  const auto* end = s.data() + s.size();
  const auto res = std::from_chars(s.data(), end, v);
  if (res.ec != std::errc{} || res.ptr != end) return std::nullopt;
  return v;
}

/// The whole of `s` as a non-negative integer, exact over the full 64 bits.
/// Other spellings of an integral value ("1e3", "16.0") are accepted;
/// signs, fractions and values past 64 bits are not.
[[nodiscard]] inline std::optional<std::uint64_t> parse_uint(std::string_view s) {
  std::uint64_t u{};
  const auto* end = s.data() + s.size();
  const auto res = std::from_chars(s.data(), end, u);
  if (res.ec == std::errc{} && res.ptr == end) return u;
  const auto d = parse_real(s);
  if (!d || !(*d >= 0.0) || *d >= 0x1p64 || *d != std::floor(*d)) return std::nullopt;
  return static_cast<std::uint64_t>(*d);
}

}  // namespace mgap::sim
