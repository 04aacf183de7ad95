// Unit tests: simulation kernel (time, RNG, event queue, clocks).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/clock.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace mgap::sim {
namespace {

TEST(Duration, FactoriesAndArithmetic) {
  EXPECT_EQ(Duration::ms(75).count_us(), 75'000);
  EXPECT_EQ(Duration::sec(2).count_ms(), 2'000);
  EXPECT_EQ((Duration::ms(100) + Duration::us(500)).count_us(), 100'500);
  EXPECT_EQ((Duration::sec(1) - Duration::ms(1)).count_ms(), 999);
  EXPECT_EQ(Duration::ms(75) * 4, Duration::ms(300));
  EXPECT_EQ(Duration::sec(1) / Duration::ms(75), 13);
  EXPECT_EQ(Duration::sec(1) % Duration::ms(75), Duration::ms(25));
  EXPECT_LT(Duration::ms(1), Duration::ms(2));
  EXPECT_TRUE((-Duration::ms(1)).is_negative());
}

TEST(Duration, FractionalFactories) {
  EXPECT_EQ(Duration::ms_f(1.25).count_us(), 1250);
  EXPECT_EQ(Duration::sec_f(0.5).count_ms(), 500);
}

TEST(Duration, ScaledAppliesPpmDrift) {
  const Duration interval = Duration::ms(75);
  // +5 ppm on 75 ms = +375 ns.
  EXPECT_EQ(interval.scaled(1.0 + 5e-6).count_ns(), 75'000'375);
}

TEST(TimePoint, Arithmetic) {
  const TimePoint t = TimePoint::origin() + Duration::sec(10);
  EXPECT_EQ((t + Duration::ms(1)) - t, Duration::ms(1));
  EXPECT_EQ(t.since_origin(), Duration::sec(10));
  EXPECT_LT(t, t + Duration::ns(1));
}

TEST(Rng, Deterministic) {
  Rng a{12345, 7};
  Rng b{12345, 7};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, StreamsAreIndependent) {
  Rng a{12345, 1};
  Rng b{12345, 2};
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) any_diff |= a.next_u64() != b.next_u64();
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng rng{1, 1};
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIsInUnitInterval) {
  Rng rng{99, 0};
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng{7, 3};
  double sum = 0;
  double sq = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sq / kN, 1.0, 0.03);
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng{5, 5};
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, UniformDurationWithinBounds) {
  Rng rng{11, 0};
  const Duration lo = Duration::ms(65);
  const Duration hi = Duration::ms(85);
  for (int i = 0; i < 1000; ++i) {
    const Duration d = rng.uniform_duration(lo, hi);
    ASSERT_GE(d, lo);
    ASSERT_LE(d, hi);
  }
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimePoint::from_ns(300), [&] { order.push_back(3); });
  q.schedule(TimePoint::from_ns(100), [&] { order.push_back(1); });
  q.schedule(TimePoint::from_ns(200), [&] { order.push_back(2); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> order;
  const auto t = TimePoint::from_ns(50);
  for (int i = 0; i < 5; ++i) {
    q.schedule(t, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().action();
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(EventQueue, SameTimeFifoIgnoresSlotNumbers) {
  // The heap key packs the slot index under the sequence number. Events at
  // one instant that land in recycled, lower-numbered slots must still fire
  // after the earlier-scheduled events in higher slots.
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) q.schedule(TimePoint::from_ns(1 + i), [] {});  // slots 0..9
  const auto t = TimePoint::from_ns(100);
  for (int i = 0; i < 5; ++i) {
    q.schedule(t, [&order, i] { order.push_back(i); });  // slots 10..14
  }
  for (int i = 0; i < 10; ++i) q.pop().action();  // frees slots 0..9
  for (int i = 5; i < 10; ++i) {
    q.schedule(t, [&order, i] { order.push_back(i); });  // recycled slots 9..5
  }
  EXPECT_EQ(q.slot_capacity(), 15u);
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(EventQueue, TouchHintNeverChangesOrder) {
  // Hints of every shape leave what fires, and when, exactly as without them:
  // no spans, null and zero-byte spans (first, between and after real ones),
  // spans off a line boundary, past the 255-line cap, and all four spans
  // in use. Cancelling some events recycles slots under other hint shapes.
  std::vector<char> buf(64 * 1024);
  const TouchSpan none{};
  const TouchSpan empty{buf.data(), 0};
  const TouchSpan null_sized{nullptr, 128};
  const TouchSpan odd{buf.data() + 3, 64};
  const TouchSpan mid{buf.data() + 100, 490};
  const TouchSpan huge{buf.data(), buf.size()};
  const std::array<Touch, 8> hints{
      Touch{},
      Touch{{empty}},
      Touch{{odd}},
      Touch{{huge}},
      Touch{{none, null_sized, mid}},
      Touch{{odd, empty, huge, mid}},
      Touch{{mid, odd, huge, TouchSpan{buf.data() + 5000, 1}}},
      Touch{{empty, none, null_sized, huge}}};
  const auto run = [&](bool hinted) {
    EventQueue q;
    std::vector<std::pair<std::int64_t, int>> fired;
    std::vector<EventId> ids;
    for (int i = 0; i < 80; ++i) {
      const auto at = TimePoint::from_ns((i * 7) % 5);
      const Touch hint = hinted ? hints[static_cast<std::size_t>(i) % hints.size()] : Touch{};
      ids.push_back(
          q.schedule(at, [&fired, at, i] { fired.emplace_back(at.count_ns(), i); }, hint));
    }
    for (std::size_t i = 0; i < ids.size(); i += 3) q.cancel(ids[i]);
    for (int i = 0; i < 40; ++i) {
      const auto at = TimePoint::from_ns(3 + (i * 11) % 7);
      const Touch hint =
          hinted ? hints[static_cast<std::size_t>(i + 3) % hints.size()] : Touch{};
      q.schedule(at, [&fired, at, i] { fired.emplace_back(at.count_ns(), 100 + i); }, hint);
    }
    while (!q.empty()) q.pop().action();
    return fired;
  };
  const auto hinted = run(true);
  EXPECT_EQ(hinted.size(), 80u - 27u + 40u);
  EXPECT_EQ(hinted, run(false));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.schedule(TimePoint::from_ns(10), [&] { ++fired; });
  q.schedule(TimePoint::from_ns(20), [&] { ++fired; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // double cancel is a no-op
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelInvalidIdIsNoop) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventId{}));
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const auto id1 = q.schedule(TimePoint::from_ns(1), [] {});
  q.schedule(TimePoint::from_ns(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(id1);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SameTimeFifoSurvivesInterleavedCancels) {
  EventQueue q;
  std::vector<int> order;
  const auto t = TimePoint::from_ns(50);
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(q.schedule(t, [&order, i] { order.push_back(i); }));
  }
  // Cancelling every other event must not disturb the FIFO order of the rest.
  for (int i = 1; i < 10; i += 2) EXPECT_TRUE(q.cancel(ids[static_cast<std::size_t>(i)]));
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 6, 8}));
}

TEST(EventQueue, StaleIdOfRecycledSlotIsRejected) {
  EventQueue q;
  int fired = 0;
  const EventId stale = q.schedule(TimePoint::from_ns(10), [&] { ++fired; });
  q.pop().action();  // fires; the slot returns to the free list
  EXPECT_EQ(fired, 1);
  // The next schedule recycles the slot; the stale handle's generation tag
  // must not let it cancel the unrelated successor.
  q.schedule(TimePoint::from_ns(20), [&] { ++fired; });
  EXPECT_FALSE(q.cancel(stale));
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, StaleIdAfterCancelIsRejectedAcrossEpochs) {
  EventQueue q;
  std::vector<EventId> old_epoch;
  for (int epoch = 0; epoch < 100; ++epoch) {
    const EventId id = q.schedule(TimePoint::from_ns(epoch), [] {});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));  // immediately stale
    for (const EventId prior : old_epoch) EXPECT_FALSE(q.cancel(prior));
    if (epoch % 10 == 0) old_epoch.push_back(id);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.cancelled_count(), 100u);
}

TEST(EventQueue, CancelHeavyRearmLoop) {
  // The supervision-timer pattern: every "connection event" cancels its
  // pending timeout and re-arms it further out. The queue must stay compact
  // (slot recycling) and fire only the final arm per timer.
  EventQueue q;
  constexpr int kTimers = 64;
  constexpr int kRearms = 200;
  std::vector<EventId> pending(kTimers);
  int fired = 0;
  for (int t = 0; t < kTimers; ++t) {
    pending[static_cast<std::size_t>(t)] =
        q.schedule(TimePoint::from_ns(1000 + t), [&] { ++fired; });
  }
  for (int r = 1; r <= kRearms; ++r) {
    for (int t = 0; t < kTimers; ++t) {
      auto& id = pending[static_cast<std::size_t>(t)];
      EXPECT_TRUE(q.cancel(id));
      id = q.schedule(TimePoint::from_ns(1000 + r * 100 + t), [&] { ++fired; });
    }
  }
  EXPECT_EQ(q.size(), static_cast<std::size_t>(kTimers));
  // Slot recycling keeps the arena at the live working set, not the cancel
  // history (the old sorted-vector side table kept every live entry forever).
  EXPECT_LE(q.slot_capacity(), static_cast<std::size_t>(2 * kTimers));
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, kTimers);
  EXPECT_EQ(q.cancelled_count(), static_cast<std::uint64_t>(kTimers) * kRearms);
}

TEST(EventQueue, NextTimeIsConstAndSkipsCancelledEarliest) {
  EventQueue q;
  const EventId early = q.schedule(TimePoint::from_ns(10), [] {});
  q.schedule(TimePoint::from_ns(30), [] {});
  q.cancel(early);
  const EventQueue& view = q;  // must be safe to share as const
  EXPECT_EQ(view.next_time(), TimePoint::from_ns(30));
}

TEST(EventQueue, MoveOnlyActionsAreSupported) {
  EventQueue q;
  auto owned = std::make_unique<int>(41);
  int got = 0;
  q.schedule(TimePoint::from_ns(1),
             [owned = std::move(owned), &got] { got = *owned + 1; });
  q.pop().action();
  EXPECT_EQ(got, 42);
}

TEST(EventQueue, LargeCaptureFallsBackToHeapCorrectly) {
  // Captures beyond Action::kInlineBytes take the heap path; the payload must
  // survive the queue's internal moves (slot reuse, heap sift) intact.
  EventQueue q;
  std::vector<std::uint8_t> payload(1000, 0xA5);
  std::array<std::uint64_t, 8> big{1, 2, 3, 4, 5, 6, 7, 8};
  static_assert(sizeof(big) + sizeof(void*) > Action::kInlineBytes);
  std::size_t seen = 0;
  q.schedule(TimePoint::from_ns(5),
             [payload = std::move(payload), big, &seen] { seen = payload.size() + big[7]; });
  q.schedule(TimePoint::from_ns(1), [] {});
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(seen, 1008u);
}

TEST(EventQueue, RandomizedChurnMatchesReferenceModel) {
  // Adversarial interleaving of schedule/cancel/pop against a multimap-based
  // reference: same fired multiset, same order.
  EventQueue q;
  Rng rng{2024, 9};
  std::multimap<std::pair<std::int64_t, std::uint64_t>, int> reference;
  std::vector<std::pair<EventId, std::pair<std::int64_t, std::uint64_t>>> live;
  std::vector<int> fired;
  std::vector<int> expected;
  std::uint64_t seq = 0;
  int next_tag = 0;
  for (int step = 0; step < 20'000; ++step) {
    const std::uint64_t roll = rng.next_u64() % 100;
    if (roll < 50 || q.empty()) {
      const auto at = static_cast<std::int64_t>(rng.next_u64() % 10'000);
      const int tag = next_tag++;
      const EventId id =
          q.schedule(TimePoint::from_ns(at), [&fired, tag] { fired.push_back(tag); });
      live.emplace_back(id, std::make_pair(at, seq));
      reference.emplace(std::make_pair(at, seq), tag);
      ++seq;
    } else if (roll < 75 && !live.empty()) {
      const std::size_t pick = rng.next_u64() % live.size();
      EXPECT_TRUE(q.cancel(live[pick].first));
      EXPECT_FALSE(q.cancel(live[pick].first));
      reference.erase(reference.find(live[pick].second));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      const auto it = reference.begin();
      expected.push_back(it->second);
      std::erase_if(live, [&](const auto& e) { return e.second == it->first; });
      reference.erase(it);
      q.pop().action();
    }
    ASSERT_EQ(q.size(), reference.size());
  }
  while (!q.empty()) {
    const auto it = reference.begin();
    expected.push_back(it->second);
    reference.erase(it);
    q.pop().action();
  }
  EXPECT_EQ(fired, expected);
}

TEST(Simulator, RunUntilAdvancesClock) {
  Simulator sim{1};
  int fired = 0;
  sim.schedule_in(Duration::ms(10), [&] { ++fired; });
  sim.schedule_in(Duration::ms(30), [&] { ++fired; });
  sim.run_until(TimePoint::origin() + Duration::ms(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::ms(20));
  sim.run_until(TimePoint::origin() + Duration::ms(40));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim{1};
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_in(Duration::ms(1), recurse);
  };
  sim.schedule_in(Duration::ms(1), recurse);
  sim.run_until(TimePoint::origin() + Duration::sec(1));
  EXPECT_EQ(depth, 5);
}

TEST(Simulator, ScheduleInPastClampsToNow) {
  Simulator sim{1};
  sim.run_until(TimePoint::origin() + Duration::sec(1));
  int fired = 0;
  sim.schedule_at(TimePoint::origin(), [&] { ++fired; });  // in the past
  sim.run_until(TimePoint::origin() + Duration::sec(2));
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, CancelOfPoppedEventIsNoOp) {
  // A cancel that arrives after its event was popped — it already ran, or it
  // is the event currently running — returns false and changes nothing. A
  // cancel of a same-tick event that has not run yet succeeds.
  Simulator sim{1};
  std::vector<int> fired;
  bool cancel_b = false;
  bool cancel_self = true;
  bool cancel_a_late = true;
  const TimePoint t0 = TimePoint::origin();
  EventId id_a;
  EventId id_b;
  id_a = sim.schedule_at(t0 + Duration::us(10), [&] {
    fired.push_back(1);
    cancel_b = sim.cancel(id_b);     // same tick, not yet run: succeeds
    cancel_self = sim.cancel(id_a);  // currently running: no-op
  });
  id_b = sim.schedule_at(t0 + Duration::us(10), [&] { fired.push_back(2); });
  sim.schedule_at(t0 + Duration::us(20), [&] {
    fired.push_back(3);
    cancel_a_late = sim.cancel(id_a);  // already fired: no-op
  });
  sim.run_until(t0 + Duration::ms(1));

  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
  EXPECT_TRUE(cancel_b);
  EXPECT_FALSE(cancel_self);
  EXPECT_FALSE(cancel_a_late);
  EXPECT_EQ(sim.events_cancelled(), 1u);
}

TEST(SleepClock, DriftRoundTrip) {
  const SleepClock clk{5.0};  // +5 ppm fast
  const Duration local = Duration::sec(3600);
  const Duration global = clk.local_to_global(local);
  // 5 ppm over an hour = 18 ms.
  EXPECT_EQ(global.count_ns() - local.count_ns(), 18'000'000);
  EXPECT_NEAR(static_cast<double>(clk.global_to_local(global).count_ns()),
              static_cast<double>(local.count_ns()), 10.0);
}

TEST(SleepClock, ZeroDriftIsIdentity) {
  const SleepClock clk{0.0};
  EXPECT_EQ(clk.local_to_global(Duration::ms(75)), Duration::ms(75));
}

TEST(SleepClock, RelativeDriftBetweenTwoClocks) {
  // Two coordinators timing 75 ms intervals at +5 / -5 ppm drift apart by
  // 750 ns per interval: the connection-shading clock race (section 6.2).
  const SleepClock a{5.0};
  const SleepClock b{-5.0};
  const Duration itvl = Duration::ms(75);
  const auto delta = a.local_to_global(itvl) - b.local_to_global(itvl);
  EXPECT_EQ(delta.count_ns(), 750);
}

}  // namespace
}  // namespace mgap::sim
