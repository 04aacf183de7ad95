#pragma once
// Numbers in description files: strict parsing of a whole token, and the
// shortest text that parses back to the identical double. Config renders
// and campaign outputs print reals with format_real, so they are exact and
// the same on every run and thread.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace mgap::sim {

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
