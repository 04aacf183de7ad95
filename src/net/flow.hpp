#pragma once
// Netif-layer flow control: the knobs that replace silent pktbuf tail-drop
// with explicit back-pressure (ROADMAP item 4, the production checklist of
// the esp32 transport_ble exemplar).
//
// Three independent mechanisms, each off by default so legacy configurations
// reproduce bit-for-bit:
//  * bounded per-neighbor TX queues — admission control instead of letting
//    one congested next hop eat the shared pktbuf;
//  * exponential backoff with seeded jitter on a full downstream link —
//    damping instead of hammering every writable signal;
//  * a per-link circuit breaker (closed -> open -> half-open) — shed load
//    fast while the link is hopeless, probe gently on recovery.

#include <cstdint>

#include "sim/time.hpp"

namespace mgap::net {

enum class BreakerState : std::uint8_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

[[nodiscard]] constexpr const char* to_string(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "?";
}

struct FlowConfig {
  /// Per-neighbor TX queue bound in frames; 0 keeps the legacy unbounded
  /// queue (losses then surface solely as pktbuf tail-drops).
  std::size_t txq_frames{0};

  /// Exponential backoff on a refused downstream send.
  bool backoff{false};
  sim::Duration backoff_base{sim::Duration::ms(20)};
  sim::Duration backoff_max{sim::Duration::ms(640)};
  sim::Duration backoff_jitter{sim::Duration::ms(10)};

  /// Per-link circuit breaker.
  bool breaker{false};
  unsigned breaker_threshold{8};  // consecutive refusals to trip open
  sim::Duration breaker_open{sim::Duration::ms(500)};  // open -> half-open
  unsigned breaker_probes{2};     // half-open successes to close

  /// Pktbuf occupancy hysteresis (percent) steering L2CAP credit withholding:
  /// above `congest_on_pct` the stack reports itself not rx-ready, below
  /// `congest_off_pct` ready again. Only bites with deferred credits.
  unsigned congest_on_pct{75};
  unsigned congest_off_pct{50};

  [[nodiscard]] bool bounded_queue() const { return txq_frames > 0; }
  [[nodiscard]] bool any() const { return bounded_queue() || backoff || breaker; }
};

/// Timing-free circuit-breaker state machine; the caller supplies `now` so
/// the class stays trivially property-testable. Legal transitions only:
///   closed --[threshold consecutive failures]--> open
///   open --[open_for elapsed, next allow()]--> half-open
///   half-open --[probes successes]--> closed
///   half-open --[any failure]--> open
/// reset() (link down/up) returns to closed from anywhere.
class CircuitBreaker {
 public:
  CircuitBreaker(unsigned threshold, sim::Duration open_for, unsigned probes)
      : threshold_{threshold}, open_for_{open_for}, probes_{probes} {}

  /// Whether a send may be attempted at `now`. Transitions open -> half-open
  /// once the open window has elapsed.
  [[nodiscard]] bool allow(sim::TimePoint now) {
    if (state_ == BreakerState::kOpen) {
      if (now < reopen_at_) return false;
      state_ = BreakerState::kHalfOpen;
      successes_ = 0;
      ++transitions_;
    }
    return true;
  }

  void on_success() {
    switch (state_) {
      case BreakerState::kClosed: failures_ = 0; break;
      case BreakerState::kHalfOpen:
        if (++successes_ >= probes_) {
          state_ = BreakerState::kClosed;
          failures_ = 0;
          ++transitions_;
        }
        break;
      case BreakerState::kOpen: break;  // shed traffic cannot succeed
    }
  }

  /// Returns true when this failure tripped the breaker open.
  bool on_failure(sim::TimePoint now) {
    switch (state_) {
      case BreakerState::kClosed:
        if (++failures_ >= threshold_) {
          trip(now);
          return true;
        }
        return false;
      case BreakerState::kHalfOpen:
        trip(now);  // a failed probe re-opens immediately
        return true;
      case BreakerState::kOpen: return false;
    }
    return false;
  }

  /// Link went away (or came back fresh): forget everything. Keeps a repaired
  /// link from serving time for its predecessor's sins.
  void reset() {
    state_ = BreakerState::kClosed;
    failures_ = 0;
    successes_ = 0;
  }

  [[nodiscard]] BreakerState state() const { return state_; }
  [[nodiscard]] std::uint64_t opens() const { return opens_; }
  [[nodiscard]] std::uint64_t transitions() const { return transitions_; }
  [[nodiscard]] sim::TimePoint reopen_at() const { return reopen_at_; }

 private:
  void trip(sim::TimePoint now) {
    state_ = BreakerState::kOpen;
    reopen_at_ = now + open_for_;
    failures_ = 0;
    successes_ = 0;
    ++opens_;
    ++transitions_;
  }

  unsigned threshold_;
  sim::Duration open_for_;
  unsigned probes_;
  BreakerState state_{BreakerState::kClosed};
  unsigned failures_{0};
  unsigned successes_{0};
  sim::TimePoint reopen_at_;
  std::uint64_t opens_{0};
  std::uint64_t transitions_{0};
};

}  // namespace mgap::net
