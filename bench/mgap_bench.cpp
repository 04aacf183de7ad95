// mgap_bench — event-queue timing regression harness.
//
//   mgap_bench [--out DIR] [--quick] [event_queue]
//
// Emits BENCH_event_queue.json. The suite drives the simulator-core hot path
// at 10k/30k/100k live events: near-constant ns/op across sizes is the
// contract — the pre-slot-map implementation erased from the front of a
// sorted vector on every pop/cancel, so its ns/op grew linearly with the
// live-event count (quadratic total time) and a 24 h campaign spent most of
// its wall clock inside the queue.
//
// CI's bench-smoke job fails when the 100k-event case regresses more than 2x
// against the committed baseline (scaling-normalized, so a slower runner does
// not false-positive). Wall-clock timing is the one thing ctest cannot judge;
// the deterministic worlds are golden specs (tests/golden/, label `golden`).

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "campaign/writers.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

using namespace mgap;

namespace {

// Wall-clock intervals at nanosecond resolution all the way into the JSON:
// milliseconds would zero out every sub-ms case.
double seconds_since(std::chrono::steady_clock::time_point t0) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - t0);
  return static_cast<double>(ns.count()) * 1e-9;
}

struct Case {
  std::string name;
  std::size_t n;
  std::uint64_t ops;
  double seconds;
  [[nodiscard]] double ns_per_op() const {
    return ops == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(ops);
  }
};

/// Schedule n events at uniform random times, then drain — the exact workload
/// that was quadratic before the slot-map rewrite.
Case bench_schedule_drain(std::size_t n) {
  sim::Rng rng{1, 1};
  sim::EventQueue q;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    q.schedule(sim::TimePoint::from_ns(static_cast<std::int64_t>(rng.next_u64() % 1'000'000)),
               [] {});
  }
  while (!q.empty()) q.pop();
  return Case{"schedule_drain", n, static_cast<std::uint64_t>(2 * n), seconds_since(t0)};
}

/// n live timers, each cancelled and re-armed repeatedly — the supervision
/// timer pattern of the BLE connection-event loop.
Case bench_cancel_rearm(std::size_t n, std::size_t rounds) {
  sim::Rng rng{2, 1};
  sim::EventQueue q;
  std::vector<sim::EventId> timers(n);
  for (std::size_t i = 0; i < n; ++i) {
    timers[i] = q.schedule(sim::TimePoint::from_ns(static_cast<std::int64_t>(i)), [] {});
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      q.cancel(timers[i]);
      timers[i] = q.schedule(
          sim::TimePoint::from_ns(static_cast<std::int64_t>(rng.next_u64() % 1'000'000)), [] {});
    }
  }
  const Case c{"cancel_rearm", n, static_cast<std::uint64_t>(2 * n * rounds),
               seconds_since(t0)};
  while (!q.empty()) q.pop();
  return c;
}

/// Steady state at n live events: pop one, schedule one — the DES main loop.
Case bench_steady_churn(std::size_t n, std::size_t ops) {
  sim::Rng rng{3, 1};
  sim::EventQueue q;
  for (std::size_t i = 0; i < n; ++i) {
    q.schedule(sim::TimePoint::from_ns(static_cast<std::int64_t>(rng.next_u64() % 1'000'000)),
               [] {});
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < ops; ++i) {
    const auto fired = q.pop();
    q.schedule(fired.at + sim::Duration::us(static_cast<std::int64_t>(rng.next_u64() % 1000)),
               [] {});
  }
  const Case c{"steady_churn", n, static_cast<std::uint64_t>(2 * ops), seconds_since(t0)};
  return c;
}

/// Runs `once` kRepeats times and keeps the run with the median time, so one
/// preempted or cold repeat cannot move the scaling ratio.
template <typename F>
Case median_of_repeats(F once) {
  constexpr std::size_t kRepeats = 5;
  std::vector<Case> runs;
  for (std::size_t r = 0; r < kRepeats; ++r) runs.push_back(once());
  std::nth_element(runs.begin(), runs.begin() + kRepeats / 2, runs.end(),
                   [](const Case& a, const Case& b) { return a.seconds < b.seconds; });
  return runs[kRepeats / 2];
}

int run_event_queue(const std::string& out_dir, bool quick) {
  const std::size_t scale = quick ? 10 : 1;
  const std::size_t sizes[] = {10'000, 30'000, 100'000};
  const std::size_t rounds = 20 / scale + 1;
  const std::size_t churn_ops = 500'000 / scale;
  // Untimed warm-up of every case at the first size: the first measured case
  // must not pay for cold caches and page faults (it once ran at 3x its
  // steady cost and halved the committed scaling ratio).
  (void)bench_schedule_drain(sizes[0]);
  (void)bench_cancel_rearm(sizes[0], rounds);
  (void)bench_steady_churn(sizes[0], churn_ops);
  std::vector<Case> cases;
  for (const std::size_t n : sizes) {
    cases.push_back(median_of_repeats([&] { return bench_schedule_drain(n); }));
    cases.push_back(median_of_repeats([&] { return bench_cancel_rearm(n, rounds); }));
    cases.push_back(median_of_repeats([&] { return bench_steady_churn(n, churn_ops); }));
  }

  double small = 0.0;
  double large = 0.0;
  std::string json = "{\n  \"bench\": \"event_queue\",\n  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    if (c.name == "schedule_drain" && c.n == sizes[0]) small = c.ns_per_op();
    if (c.name == "schedule_drain" && c.n == sizes[2]) large = c.ns_per_op();
    char line[160];
    std::snprintf(line, sizeof line,
                  "    {\"name\": \"%s\", \"n\": %zu, \"ops\": %" PRIu64
                  ", \"seconds\": %.9f, \"ns_per_op\": %.1f}%s\n",
                  c.name.c_str(), c.n, c.ops, c.seconds, c.ns_per_op(),
                  i + 1 < cases.size() ? "," : "");
    json += line;
  }
  // The headline number: ns/op growth from 10k to 100k live events. ~1 for a
  // real heap; ~10 (linear in n) for the old sorted-vector side table.
  char tail[128];
  std::snprintf(tail, sizeof tail,
                "  ],\n  \"scaling_ratio_10k_to_100k\": %.2f\n}\n",
                small > 0 ? large / small : 0.0);
  json += tail;
  campaign::write_file(out_dir + "/BENCH_event_queue.json", json);
  std::printf("event_queue: schedule_drain %.0f ns/op @10k -> %.0f ns/op @100k "
              "(ratio %.2f)\n",
              small, large, small > 0 ? large / small : 0.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir = ".";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "event_queue") != 0) {
      std::fprintf(stderr, "usage: %s [--out DIR] [--quick] [event_queue]\n", argv[0]);
      return 2;
    }
  }
  return run_event_queue(out_dir, quick);
}
