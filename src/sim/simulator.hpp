#pragma once
// The simulation kernel facade: current time, scheduling, and run control.
// One serial event loop: run_until() pops the earliest event, advances now()
// to its timestamp and runs it to completion before the next one.

#include <cstdint>
#include <functional>
#include <limits>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace mgap::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : seed_{seed} {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] TimePoint now() const { return now_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Creates an independent RNG stream. Call order does not matter; streams
  /// are keyed by an internally incremented id, so construct components in a
  /// deterministic order for bit-exact reproducibility.
  [[nodiscard]] Rng make_rng() { return Rng{seed_, next_stream_++}; }
  [[nodiscard]] Rng make_rng(std::uint64_t stream) const { return Rng{seed_, stream}; }

  /// Schedules `action` at `at`, clamped to now(): nothing fires in the past.
  /// `touch` is EventQueue::schedule's prefetch hint.
  EventId schedule_at(TimePoint at, EventQueue::Action action, const Touch& touch = {}) {
    return queue_.schedule(max(at, now_), std::move(action), touch);
  }
  EventId schedule_in(Duration delay, EventQueue::Action action) {
    return schedule_at(now_ + max(delay, Duration{}), std::move(action));
  }
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs events until the queue is exhausted or `until` is reached.
  /// Events exactly at `until` are executed. Returns the number of events run.
  std::uint64_t run_until(TimePoint until);

  /// Runs until the queue empties.
  std::uint64_t run() { return run_until(TimePoint::from_ns(std::numeric_limits<std::int64_t>::max())); }

  [[nodiscard]] std::uint64_t events_fired() const { return queue_.fired_count(); }
  [[nodiscard]] std::uint64_t events_cancelled() const { return queue_.cancelled_count(); }
  [[nodiscard]] std::size_t events_pending() const { return queue_.size(); }
  [[nodiscard]] bool idle() const { return queue_.empty(); }

 private:
  EventQueue queue_;
  TimePoint now_{TimePoint::origin()};
  std::uint64_t seed_;
  std::uint64_t next_stream_{1};
};

}  // namespace mgap::sim
