#pragma once
// Simulation time: strongly typed nanosecond durations and time points.
//
// BLE timing spans six orders of magnitude (150 us inter-frame spacing up to
// 24 h experiment runs) and clock-drift effects accumulate sub-microsecond
// offsets over hours, so the kernel uses signed 64-bit nanoseconds
// (range +-292 years) rather than floating point.

#include <compare>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace mgap::sim {

/// A signed span of simulated time with nanosecond resolution.
class Duration {
 public:
  constexpr Duration() = default;

  [[nodiscard]] static constexpr Duration ns(std::int64_t v) { return Duration{v}; }
  [[nodiscard]] static constexpr Duration us(std::int64_t v) { return Duration{v * 1000}; }
  [[nodiscard]] static constexpr Duration ms(std::int64_t v) { return Duration{v * 1'000'000}; }
  [[nodiscard]] static constexpr Duration sec(std::int64_t v) { return Duration{v * 1'000'000'000}; }
  [[nodiscard]] static constexpr Duration minutes(std::int64_t v) { return sec(v * 60); }
  [[nodiscard]] static constexpr Duration hours(std::int64_t v) { return sec(v * 3600); }

  /// Fractional factories for values such as "1.25 ms connection-interval units".
  [[nodiscard]] static constexpr Duration ms_f(double v) {
    return Duration{static_cast<std::int64_t>(v * 1e6)};
  }
  [[nodiscard]] static constexpr Duration sec_f(double v) {
    return Duration{static_cast<std::int64_t>(v * 1e9)};
  }

  [[nodiscard]] constexpr std::int64_t count_ns() const { return ns_; }
  [[nodiscard]] constexpr std::int64_t count_us() const { return ns_ / 1000; }
  [[nodiscard]] constexpr std::int64_t count_ms() const { return ns_ / 1'000'000; }
  [[nodiscard]] constexpr double to_us_f() const { return static_cast<double>(ns_) / 1e3; }
  [[nodiscard]] constexpr double to_ms_f() const { return static_cast<double>(ns_) / 1e6; }
  [[nodiscard]] constexpr double to_sec_f() const { return static_cast<double>(ns_) / 1e9; }

  [[nodiscard]] constexpr bool is_zero() const { return ns_ == 0; }
  [[nodiscard]] constexpr bool is_negative() const { return ns_ < 0; }

  constexpr Duration& operator+=(Duration o) { ns_ += o.ns_; return *this; }
  constexpr Duration& operator-=(Duration o) { ns_ -= o.ns_; return *this; }

  friend constexpr Duration operator+(Duration a, Duration b) { return Duration{a.ns_ + b.ns_}; }
  friend constexpr Duration operator-(Duration a, Duration b) { return Duration{a.ns_ - b.ns_}; }
  friend constexpr Duration operator-(Duration a) { return Duration{-a.ns_}; }
  friend constexpr Duration operator*(Duration a, std::int64_t k) { return Duration{a.ns_ * k}; }
  friend constexpr Duration operator*(std::int64_t k, Duration a) { return a * k; }
  friend constexpr Duration operator/(Duration a, std::int64_t k) { return Duration{a.ns_ / k}; }
  /// Integer division of two durations (e.g. how many intervals fit in a window).
  friend constexpr std::int64_t operator/(Duration a, Duration b) { return a.ns_ / b.ns_; }
  friend constexpr Duration operator%(Duration a, Duration b) { return Duration{a.ns_ % b.ns_}; }

  /// Scale by a real factor; used for clock-drift corrections (1 + ppm * 1e-6).
  [[nodiscard]] constexpr Duration scaled(double factor) const {
    return Duration{static_cast<std::int64_t>(static_cast<double>(ns_) * factor)};
  }

  friend constexpr auto operator<=>(Duration, Duration) = default;

  [[nodiscard]] std::string str() const;

 private:
  constexpr explicit Duration(std::int64_t v) : ns_{v} {}
  std::int64_t ns_{0};
};

/// An absolute instant on the global (drift-free) simulation timeline.
class TimePoint {
 public:
  constexpr TimePoint() = default;
  [[nodiscard]] static constexpr TimePoint from_ns(std::int64_t v) { return TimePoint{v}; }
  [[nodiscard]] static constexpr TimePoint origin() { return TimePoint{0}; }
  /// Later than every reachable instant.
  [[nodiscard]] static constexpr TimePoint never() {
    return TimePoint{std::numeric_limits<std::int64_t>::max()};
  }

  [[nodiscard]] constexpr std::int64_t count_ns() const { return ns_; }
  [[nodiscard]] constexpr Duration since_origin() const { return Duration::ns(ns_); }
  [[nodiscard]] constexpr double to_sec_f() const { return static_cast<double>(ns_) / 1e9; }

  friend constexpr TimePoint operator+(TimePoint t, Duration d) {
    return TimePoint{t.ns_ + d.count_ns()};
  }
  friend constexpr TimePoint operator+(Duration d, TimePoint t) { return t + d; }
  friend constexpr TimePoint operator-(TimePoint t, Duration d) {
    return TimePoint{t.ns_ - d.count_ns()};
  }
  friend constexpr Duration operator-(TimePoint a, TimePoint b) {
    return Duration::ns(a.ns_ - b.ns_);
  }
  constexpr TimePoint& operator+=(Duration d) { ns_ += d.count_ns(); return *this; }

  friend constexpr auto operator<=>(TimePoint, TimePoint) = default;

  [[nodiscard]] std::string str() const;

 private:
  constexpr explicit TimePoint(std::int64_t v) : ns_{v} {}
  std::int64_t ns_{0};
};

/// Parses durations like "150us", "75ms", "1.5s", "30m", "24h". Lives here
/// (not in testbed) so lower layers — e.g. the fault-event spec parser — can
/// share the experiment file syntax without an upward dependency.
[[nodiscard]] std::optional<Duration> parse_duration(std::string_view text);

[[nodiscard]] constexpr Duration max(Duration a, Duration b) { return a < b ? b : a; }
[[nodiscard]] constexpr Duration min(Duration a, Duration b) { return a < b ? a : b; }
[[nodiscard]] constexpr TimePoint max(TimePoint a, TimePoint b) { return a < b ? b : a; }
[[nodiscard]] constexpr TimePoint min(TimePoint a, TimePoint b) { return a < b ? a : b; }

}  // namespace mgap::sim
