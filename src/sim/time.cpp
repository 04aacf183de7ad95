#include "sim/time.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "sim/number.hpp"

namespace mgap::sim {

std::string Duration::str() const {
  char buf[64];
  if (ns_ % 1'000'000'000 == 0) {
    std::snprintf(buf, sizeof buf, "%llds", static_cast<long long>(ns_ / 1'000'000'000));
  } else if (ns_ % 1'000'000 == 0) {
    std::snprintf(buf, sizeof buf, "%lldms", static_cast<long long>(ns_ / 1'000'000));
  } else if (ns_ % 1'000 == 0) {
    std::snprintf(buf, sizeof buf, "%lldus", static_cast<long long>(ns_ / 1'000));
  } else {
    std::snprintf(buf, sizeof buf, "%lldns", static_cast<long long>(ns_));
  }
  return buf;
}

std::string TimePoint::str() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6fs", static_cast<double>(ns_) / 1e9);
  return buf;
}

std::optional<Duration> parse_duration(std::string_view text) {
  text = trim(text);
  if (text.empty()) return std::nullopt;
  bool negative = false;
  if (text.front() == '-') {
    negative = true;
    text.remove_prefix(1);
  }
  const auto unit_pos = text.find_first_not_of("0123456789.");
  if (unit_pos == 0 || unit_pos == std::string_view::npos) return std::nullopt;
  double num{};
  const std::string_view digits = text.substr(0, unit_pos);
  const auto res = std::from_chars(digits.data(), digits.data() + digits.size(), num);
  if (res.ec != std::errc{} || res.ptr != digits.data() + digits.size()) {
    return std::nullopt;
  }
  if (negative) num = -num;
  const std::string_view unit = text.substr(unit_pos);
  double ns{};
  if (unit == "ns") {
    ns = num;  // the unit Duration::str() writes for sub-microsecond values
  } else if (unit == "us") {
    ns = num * 1e3;
  } else if (unit == "ms") {
    ns = num * 1e6;
  } else if (unit == "s") {
    ns = num * 1e9;
  } else if (unit == "m" || unit == "min") {
    ns = num * 60.0 * 1e9;
  } else if (unit == "h") {
    ns = num * 3600.0 * 1e9;
  } else {
    return std::nullopt;
  }
  // Past +-2^63 ns (about 292 years) the conversion would overflow.
  if (!(std::abs(ns) < 0x1p63)) return std::nullopt;
  return Duration::ns(static_cast<std::int64_t>(ns));
}

}  // namespace mgap::sim
