// Micro-benchmarks (google-benchmark): hot paths of the simulation platform.
// These guard the performance envelope that makes the 24 h / 60-configuration
// paper experiments tractable.

#include <benchmark/benchmark.h>

#include <vector>

#include "app/coap.hpp"
#include "ble/channel_selection.hpp"
#include "ble/world.hpp"
#include "net/checksum.hpp"
#include "net/sixlowpan.hpp"
#include "net/udp.hpp"
#include "obs/recorder.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "testbed/experiment.hpp"

using namespace mgap;

static void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  sim::EventQueue q;
  std::int64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      q.schedule(sim::TimePoint::from_ns(t + (i * 37) % 1000), [] {});
    }
    while (!q.empty()) q.pop();
    t += 1000;
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueScheduleAndPop);

static void BM_EventQueueCancelRearm(benchmark::State& state) {
  // The supervision-timer pattern at a realistic live-event population:
  // cancel + reschedule against `range(0)` standing events. O(1) cancel means
  // this stays flat as the population grows.
  const auto standing = static_cast<std::size_t>(state.range(0));
  sim::EventQueue q;
  std::vector<sim::EventId> timers(standing);
  for (std::size_t i = 0; i < standing; ++i) {
    timers[i] = q.schedule(sim::TimePoint::from_ns(static_cast<std::int64_t>(i + 1)), [] {});
  }
  std::size_t cursor = 0;
  std::int64_t t = static_cast<std::int64_t>(standing);
  for (auto _ : state) {
    q.cancel(timers[cursor]);
    timers[cursor] = q.schedule(sim::TimePoint::from_ns(++t), [] {});
    cursor = (cursor + 1) % standing;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueCancelRearm)->Arg(1'000)->Arg(100'000);

static void BM_RngNextU64(benchmark::State& state) {
  sim::Rng rng{42, 1};
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_u64());
}
BENCHMARK(BM_RngNextU64);

static void BM_Csa2Channel(benchmark::State& state) {
  const ble::Csa2 csa{0x8E89BED6};
  ble::ChannelMap map = ble::ChannelMap::all();
  map.exclude(22);
  std::uint16_t e = 0;
  for (auto _ : state) benchmark::DoNotOptimize(csa.channel(++e, map));
}
BENCHMARK(BM_Csa2Channel);

static void BM_UdpChecksum(benchmark::State& state) {
  const auto src = net::Ipv6Addr::site(1);
  const auto dst = net::Ipv6Addr::site(2);
  const std::vector<std::uint8_t> dg(100, 0x5A);
  for (auto _ : state) benchmark::DoNotOptimize(net::udp6_checksum(src, dst, dg));
  state.SetBytesProcessed(state.iterations() * 100);
}
BENCHMARK(BM_UdpChecksum);

static void BM_IphcEncodeDecode(benchmark::State& state) {
  const auto s = net::Ipv6Addr::site(3);
  const auto d = net::Ipv6Addr::site(1);
  net::Ipv6Header h;
  h.src = s;
  h.dst = d;
  const auto packet =
      net::ipv6_encode(h, net::udp_encode(s, d, 49155, 5683,
                                          std::vector<std::uint8_t>(39, 0xA5)));
  for (auto _ : state) {
    const auto frame = net::sixlo_encode(packet, net::CompressionMode::kIphc, 3, 1);
    benchmark::DoNotOptimize(net::sixlo_decode(frame, 3, 1));
  }
}
BENCHMARK(BM_IphcEncodeDecode);

static void BM_CoapEncodeDecode(benchmark::State& state) {
  app::CoapMessage m;
  m.token = {1, 2, 3, 4};
  m.add_uri_path("gap");
  m.payload.assign(39, 0xA5);
  for (auto _ : state) {
    const auto bytes = app::coap_encode(m);
    benchmark::DoNotOptimize(app::coap_decode(bytes));
  }
}
BENCHMARK(BM_CoapEncodeDecode);

static void BM_ConnectionEventProcessing(benchmark::State& state) {
  // Events per second of the core connection engine: 2 nodes, idle link.
  sim::Simulator simu{1};
  ble::BleWorld world{simu, phy::ChannelModel{0.01}};
  ble::Controller& a = world.add_node(1, 2.0);
  ble::Controller& b = world.add_node(2, -2.0);
  ble::ConnParams p;
  p.interval = sim::Duration::ms(75);
  world.open_connection(a, b, p, sim::TimePoint::origin() + sim::Duration::ms(10));
  sim::Duration chunk = sim::Duration::sec(60);
  sim::TimePoint until = sim::TimePoint::origin();
  for (auto _ : state) {
    until += chunk;
    simu.run_until(until);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(simu.events_fired()));
}
BENCHMARK(BM_ConnectionEventProcessing);

// Trace-emission overhead: every typed event is guarded by
// recorder->wants(type), so the disabled configuration pays one predictable
// branch per site.
static void BM_RecorderDisabledWants(benchmark::State& state) {
  // The typed-event guard on a recorder with no sinks: the per-PDU cost the
  // connection engine pays when tracing is off.
  obs::Recorder rec;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rec.wants(obs::EventType::kPduTx));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecorderDisabledWants);

static void BM_TreeExperimentMinute(benchmark::State& state) {
  // Wall-clock cost of one simulated minute of the full 15-node experiment.
  for (auto _ : state) {
    testbed::ExperimentConfig cfg;
    cfg.topology = testbed::Topology::tree15();
    cfg.duration = sim::Duration::minutes(1);
    cfg.seed = 1;
    testbed::Experiment e{cfg};
    e.run();
    benchmark::DoNotOptimize(e.summary().acked);
  }
}
BENCHMARK(BM_TreeExperimentMinute)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
