// Unit + behavioural tests of the BLE connection engine: event cadence, data
// transfer, retransmission, supervision timeout, and — most importantly —
// connection shading (section 6.1) reproduced from first principles.

#include <gtest/gtest.h>

#include <cstddef>
#include <numeric>
#include <vector>

#include "ble/world.hpp"
#include "sim/simulator.hpp"

namespace mgap::ble {
namespace {

class ConnectionTest : public ::testing::Test {
 protected:
  ConnectionTest() : world_{sim_, phy::ChannelModel{0.0}} {}

  Controller& add(NodeId id, double drift_ppm = 0.0, ControllerConfig cfg = {}) {
    return world_.add_node(id, drift_ppm, cfg);
  }

  ConnParams params(sim::Duration itvl = sim::Duration::ms(75),
                    sim::Duration timeout = sim::Duration::sec(2)) {
    ConnParams p;
    p.interval = itvl;
    p.supervision_timeout = timeout;
    return p;
  }

  void run_for(sim::Duration d) { sim_.run_until(sim_.now() + d); }

  sim::Simulator sim_{1};
  BleWorld world_;
};

TEST_F(ConnectionTest, ControllerIdleSpanCoversWhatAnIdleEventReads) {
  // A connection event reads each endpoint's clock, radio state, id,
  // activity counters and claim table. Connection's prefetch hint names
  // idle_span(), so the span starts at the (line-aligned) controller and
  // covers each of those members, through the scheduler's first inline
  // claims, in the 4 lines that measured best.
  Controller& a = add(1);
  const sim::TouchSpan span = a.idle_span();
  const auto* begin = static_cast<const std::byte*>(span.object);
  const auto* end = begin + span.bytes;
  const auto inside = [&](const void* p, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    return begin <= b && b + n <= end;
  };
  EXPECT_EQ(span.object, static_cast<const void*>(&a));
  EXPECT_TRUE(inside(&a.clock(), sizeof(sim::SleepClock)));
  EXPECT_TRUE(inside(&a.activity(), sizeof(RadioActivity)));
  EXPECT_TRUE(inside(&a.scheduler(), 1));
  EXPECT_TRUE(inside(a.scheduler().hot_claims_end(), 0));
  EXPECT_LT(static_cast<const void*>(&a.activity()), static_cast<const void*>(&a.scheduler()));
  EXPECT_LE(span.bytes, 4u * 64u);
}

TEST_F(ConnectionTest, EventsFollowTheConnectionInterval) {
  Controller& a = add(1);
  Controller& b = add(2);
  Connection& c = world_.open_connection(a, b, params(), sim::TimePoint::origin() +
                                                             sim::Duration::ms(10));
  run_for(sim::Duration::sec(10));
  // ~133 events in 10 s at 75 ms.
  EXPECT_NEAR(static_cast<double>(c.link_stats().events_ok), 133.0, 2.0);
  EXPECT_EQ(c.link_stats().events_missed, 0u);
  EXPECT_TRUE(c.is_open());
}

TEST_F(ConnectionTest, SduDeliveredWithinOneInterval) {
  Controller& a = add(1);
  Controller& b = add(2);
  Connection& c = world_.open_connection(a, b, params(), sim::TimePoint::origin() +
                                                             sim::Duration::ms(10));
  std::vector<sim::TimePoint> deliveries;
  Controller::HostCallbacks cb;
  cb.on_sdu = [&](Connection&, std::vector<std::uint8_t> sdu, sim::TimePoint at) {
    EXPECT_EQ(sdu.size(), 100u);
    deliveries.push_back(at);
  };
  b.set_host(std::move(cb));

  run_for(sim::Duration::ms(100));
  const sim::TimePoint sent = sim_.now();
  ASSERT_TRUE(a.l2cap_send(c, std::vector<std::uint8_t>(100, 0x42)));
  run_for(sim::Duration::ms(200));

  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_LE(deliveries[0] - sent, sim::Duration::ms(76));
}

TEST_F(ConnectionTest, BothDirectionsTransfer) {
  Controller& a = add(1);
  Controller& b = add(2);
  Connection& c = world_.open_connection(a, b, params(), sim::TimePoint::origin() +
                                                             sim::Duration::ms(10));
  int a_rx = 0;
  int b_rx = 0;
  Controller::HostCallbacks cba;
  cba.on_sdu = [&](Connection&, std::vector<std::uint8_t>, sim::TimePoint) { ++a_rx; };
  a.set_host(std::move(cba));
  Controller::HostCallbacks cbb;
  cbb.on_sdu = [&](Connection&, std::vector<std::uint8_t>, sim::TimePoint) { ++b_rx; };
  b.set_host(std::move(cbb));

  run_for(sim::Duration::ms(50));
  EXPECT_TRUE(a.l2cap_send(c, std::vector<std::uint8_t>(50, 1)));
  EXPECT_TRUE(b.l2cap_send(c, std::vector<std::uint8_t>(60, 2)));
  run_for(sim::Duration::ms(200));
  EXPECT_EQ(a_rx, 1);
  EXPECT_EQ(b_rx, 1);
}

TEST_F(ConnectionTest, LossyChannelRetransmitsUntilDelivered) {
  world_.channel_model() = phy::ChannelModel{0.3};
  Controller& a = add(1);
  Controller& b = add(2);
  Connection& c = world_.open_connection(a, b, params(), sim::TimePoint::origin() +
                                                             sim::Duration::ms(10));
  int rx = 0;
  Controller::HostCallbacks cb;
  cb.on_sdu = [&](Connection&, std::vector<std::uint8_t>, sim::TimePoint) { ++rx; };
  b.set_host(std::move(cb));

  run_for(sim::Duration::ms(20));
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(a.l2cap_send(c, std::vector<std::uint8_t>(100, 0x11)));
    run_for(sim::Duration::sec(1));
  }
  EXPECT_EQ(rx, 50);  // never dropped, only delayed (section 2.2 ack model)
  EXPECT_GT(c.link_stats().pdu_retrans, 0u);
  EXPECT_GT(c.link_stats().events_aborted, 0u);
  EXPECT_LT(c.link_stats().ll_pdr(), 1.0);
}

TEST_F(ConnectionTest, RetransmissionAddsFullConnectionInterval) {
  // A lost PDU is retried one event later: latency jumps by ~1 interval
  // (section 5.1). Force exactly one loss by toggling channel PER.
  Controller& a = add(1);
  Controller& b = add(2);
  Connection& c = world_.open_connection(a, b, params(), sim::TimePoint::origin() +
                                                             sim::Duration::ms(10));
  sim::TimePoint delivered;
  Controller::HostCallbacks cb;
  cb.on_sdu = [&](Connection&, std::vector<std::uint8_t>, sim::TimePoint at) {
    delivered = at;
  };
  b.set_host(std::move(cb));

  run_for(sim::Duration::ms(100));  // next event at ~160 ms
  world_.channel_model() = phy::ChannelModel{1.0};  // jam everything
  const sim::TimePoint sent = sim_.now();
  ASSERT_TRUE(a.l2cap_send(c, std::vector<std::uint8_t>(80, 1)));
  run_for(sim::Duration::ms(80));                   // one aborted event passes
  world_.channel_model() = phy::ChannelModel{0.0};  // clear the air
  run_for(sim::Duration::ms(200));

  ASSERT_NE(delivered, sim::TimePoint{});
  EXPECT_GT(delivered - sent, sim::Duration::ms(75));  // at least one extra interval
  EXPECT_GE(c.link_stats().pdu_retrans, 1u);
}

TEST_F(ConnectionTest, ShadingIdenticalIntervalsStarvesLaterConnection) {
  // Node 2 is subordinate of two coordinators whose anchors overlap within
  // the reservation slot. First-come claims starve the later connection until
  // its supervision timeout: a deterministic reproduction of section 6.1.
  Controller& c1 = add(1);
  Controller& hub = add(2);
  Controller& c2 = add(3);

  std::vector<std::pair<ConnId, DisconnectReason>> closed;
  Controller::HostCallbacks cb;
  cb.on_close = [&](Connection& conn, DisconnectReason r) {
    closed.emplace_back(conn.id(), r);
  };
  hub.set_host(std::move(cb));

  Connection& a = world_.open_connection(
      c1, hub, params(), sim::TimePoint::origin() + sim::Duration::ms(10));
  Connection& b = world_.open_connection(
      c2, hub, params(), sim::TimePoint::origin() + sim::Duration::ms_f(10.4));

  run_for(sim::Duration::sec(10));
  EXPECT_TRUE(a.is_open());
  EXPECT_FALSE(b.is_open());
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].first, b.id());
  EXPECT_EQ(closed[0].second, DisconnectReason::kSupervisionTimeout);
  EXPECT_EQ(b.link_stats().conn_losses, 1u);
  EXPECT_GT(b.link_stats().events_missed, 20u);
}

TEST_F(ConnectionTest, DistinctIntervalsSurviveOverlap) {
  // Same overlap as above but with 75 vs 80 ms intervals (the section 6.3
  // mitigation): events sweep past each other, both connections survive.
  Controller& c1 = add(1);
  Controller& hub = add(2);
  Controller& c2 = add(3);
  Connection& a = world_.open_connection(
      c1, hub, params(sim::Duration::ms(75)),
      sim::TimePoint::origin() + sim::Duration::ms(10));
  Connection& b = world_.open_connection(
      c2, hub, params(sim::Duration::ms(80)),
      sim::TimePoint::origin() + sim::Duration::ms_f(10.4));

  run_for(sim::Duration::sec(60));
  EXPECT_TRUE(a.is_open());
  EXPECT_TRUE(b.is_open());
  // Transient misses happen whenever the events cross, but never enough in a
  // row to starve the supervision timer.
  EXPECT_GT(a.link_stats().events_missed + b.link_stats().events_missed, 0u);
  EXPECT_EQ(world_.total_conn_losses(), 0u);
}

TEST_F(ConnectionTest, ClockDriftEventuallyCausesShading) {
  // Two connections with identical 75 ms intervals, anchors 20 ms apart, and
  // +-200 ppm coordinator clocks (worst-case quality gates): anchors converge
  // at 400 us/s and must collide within ~50 s of simulated time.
  Controller& c1 = add(1, -200.0);
  Controller& hub = add(2, 0.0);
  Controller& c2 = add(3, +200.0);
  world_.open_connection(c1, hub, params(),
                         sim::TimePoint::origin() + sim::Duration::ms(30));
  world_.open_connection(c2, hub, params(),
                         sim::TimePoint::origin() + sim::Duration::ms(10));
  run_for(sim::Duration::sec(120));
  EXPECT_GE(world_.total_conn_losses(), 1u);
}

TEST_F(ConnectionTest, ChannelMapExcludesJammedChannel) {
  ChannelMap map = ChannelMap::all();
  map.exclude(22);
  world_.set_default_channel_map(map);
  Controller& a = add(1);
  Controller& b = add(2);
  Connection& c = world_.open_connection(a, b, params(), sim::TimePoint::origin() +
                                                             sim::Duration::ms(10));
  run_for(sim::Duration::ms(20));
  for (int i = 0; i < 200; ++i) {
    (void)a.l2cap_send(c, std::vector<std::uint8_t>(100, 7));
    run_for(sim::Duration::ms(80));
  }
  EXPECT_EQ(c.link_stats().chan_tx[22], 0u);
  // Everything else sums up to the attempts.
  const auto total = std::accumulate(c.link_stats().chan_tx.begin(),
                                     c.link_stats().chan_tx.end(), std::uint64_t{0});
  EXPECT_EQ(total, c.link_stats().pdu_tx);
}

TEST_F(ConnectionTest, IdleConnectionStaysAliveViaEmptyPolls) {
  Controller& a = add(1, 3.0);
  Controller& b = add(2, -2.0);
  Connection& c = world_.open_connection(a, b, params(), sim::TimePoint::origin() +
                                                             sim::Duration::ms(10));
  run_for(sim::Duration::minutes(5));
  EXPECT_TRUE(c.is_open());
  EXPECT_EQ(c.link_stats().conn_losses, 0u);
}

TEST_F(ConnectionTest, LocalCloseNotifiesBothAndCountsNoLoss) {
  Controller& a = add(1);
  Controller& b = add(2);
  int closes = 0;
  Controller::HostCallbacks cba;
  cba.on_close = [&](Connection&, DisconnectReason r) {
    ++closes;
    EXPECT_EQ(r, DisconnectReason::kLocalClose);
  };
  a.set_host(std::move(cba));
  Controller::HostCallbacks cbb;
  cbb.on_close = [&](Connection&, DisconnectReason r) {
    ++closes;
    EXPECT_EQ(r, DisconnectReason::kLocalClose);
  };
  b.set_host(std::move(cbb));

  Connection& c = world_.open_connection(a, b, params(), sim::TimePoint::origin() +
                                                             sim::Duration::ms(10));
  run_for(sim::Duration::sec(1));
  c.close();
  EXPECT_FALSE(c.is_open());
  EXPECT_EQ(closes, 2);
  EXPECT_EQ(c.link_stats().conn_losses, 0u);
  run_for(sim::Duration::sec(1));
  EXPECT_EQ(c.link_stats().events_ok, c.link_stats().events_ok);  // no further events
}

TEST_F(ConnectionTest, ParamUpdateTakesEffectAfterSixEvents) {
  Controller& a = add(1);
  Controller& b = add(2);
  Connection& c = world_.open_connection(a, b, params(sim::Duration::ms(50)),
                                         sim::TimePoint::origin() + sim::Duration::ms(10));
  run_for(sim::Duration::ms(120));
  ConnParams np = c.params();
  np.interval = sim::Duration::ms(100);
  c.request_param_update(np);
  run_for(sim::Duration::ms(100));
  EXPECT_EQ(c.params().interval, sim::Duration::ms(50));  // not yet
  run_for(sim::Duration::ms(400));
  EXPECT_EQ(c.params().interval, sim::Duration::ms(100));
  EXPECT_TRUE(c.is_open());
}

TEST_F(ConnectionTest, SubordinateLatencySkipsIdleEvents) {
  Controller& a = add(1);
  Controller& b = add(2);
  ConnParams p = params(sim::Duration::ms(75), sim::Duration::sec(2));
  p.subordinate_latency = 2;  // listen every 3rd event when idle
  Connection& c = world_.open_connection(a, b, p, sim::TimePoint::origin() +
                                                      sim::Duration::ms(10));
  run_for(sim::Duration::sec(30));
  EXPECT_TRUE(c.is_open());
  const auto& act_a = a.activity();
  const auto& act_b = b.activity();
  EXPECT_GT(act_a.conn_events_coord, 2 * act_b.conn_events_sub);
  EXPECT_EQ(c.link_stats().events_missed, 0u);  // intentional skips not missed
}

TEST_F(ConnectionTest, PoolExhaustionRejectsEnqueue) {
  ControllerConfig cfg;
  cfg.buffer_bytes = 300;  // tiny NimBLE pool
  Controller& a = add(1, 0.0, cfg);
  Controller& b = add(2);
  Connection& c = world_.open_connection(a, b, params(), sim::TimePoint::origin() +
                                                             sim::Duration::ms(200));
  // Two 100-byte SDUs fit (106 B framed each); the third must be rejected
  // before any connection event drained the queue.
  EXPECT_TRUE(a.l2cap_send(c, std::vector<std::uint8_t>(100, 1)));
  EXPECT_TRUE(a.l2cap_send(c, std::vector<std::uint8_t>(100, 2)));
  EXPECT_FALSE(a.l2cap_send(c, std::vector<std::uint8_t>(100, 3)));
  EXPECT_GT(c.coc().send_rejected(Role::kCoordinator), 0u);
}

TEST_F(ConnectionTest, TxSpaceSignalledAfterDrain) {
  ControllerConfig cfg;
  cfg.buffer_bytes = 300;
  Controller& a = add(1, 0.0, cfg);
  Controller& b = add(2);
  int tx_space = 0;
  Controller::HostCallbacks cb;
  cb.on_tx_space = [&](Connection&) { ++tx_space; };
  a.set_host(std::move(cb));
  Connection& c = world_.open_connection(a, b, params(), sim::TimePoint::origin() +
                                                             sim::Duration::ms(10));
  run_for(sim::Duration::ms(20));
  ASSERT_TRUE(a.l2cap_send(c, std::vector<std::uint8_t>(100, 1)));
  run_for(sim::Duration::ms(200));
  EXPECT_GT(tx_space, 0);
  // Space is back:
  EXPECT_TRUE(a.l2cap_send(c, std::vector<std::uint8_t>(100, 2)));
}

TEST_F(ConnectionTest, SupervisionBoundaryEventDoesNotFire) {
  // The supervision check is strictly greater-than: with timeout = 2 s and
  // interval = 500 ms, the missed event exactly 4 intervals after the last
  // valid rx must NOT fire; the one after it (timeout + 1 interval) must.
  world_.channel_model() = phy::ChannelModel{1.0};  // jammed from the start
  Controller& a = add(1);
  Controller& b = add(2);
  sim::TimePoint closed_at;
  Controller::HostCallbacks cb;
  cb.on_close = [&](Connection&, DisconnectReason r) {
    EXPECT_EQ(r, DisconnectReason::kSupervisionTimeout);
    closed_at = sim_.now();
  };
  a.set_host(std::move(cb));
  const sim::TimePoint anchor0 = sim::TimePoint::origin() + sim::Duration::ms(10);
  Connection& c = world_.open_connection(
      a, b, params(sim::Duration::ms(500), sim::Duration::sec(2)), anchor0);

  // Just past the boundary event: still open (delta == timeout, not > it).
  sim_.run_until(anchor0 + sim::Duration::ms(2100));
  EXPECT_TRUE(c.is_open());
  run_for(sim::Duration::sec(2));
  EXPECT_FALSE(c.is_open());
  EXPECT_EQ(closed_at - anchor0, sim::Duration::ms(2500));
}

TEST_F(ConnectionTest, SupervisionTimeoutDuringInFlightRetransmission) {
  // An SDU stuck in retransmission when the link dies must not leak pool
  // bytes or get delivered after the close.
  Controller& a = add(1);
  Controller& b = add(2);
  int rx = 0;
  Controller::HostCallbacks cb;
  cb.on_sdu = [&](Connection&, std::vector<std::uint8_t>, sim::TimePoint) { ++rx; };
  b.set_host(std::move(cb));
  Connection& c = world_.open_connection(a, b, params(), sim::TimePoint::origin() +
                                                             sim::Duration::ms(10));
  run_for(sim::Duration::ms(100));
  world_.channel_model() = phy::ChannelModel{1.0};
  ASSERT_TRUE(a.l2cap_send(c, std::vector<std::uint8_t>(100, 0x5A)));
  EXPECT_GT(a.pool_used(), 0u);
  run_for(sim::Duration::sec(4));  // > supervision_timeout of 2 s

  EXPECT_FALSE(c.is_open());
  EXPECT_EQ(c.link_stats().conn_losses, 1u);
  EXPECT_EQ(a.pool_used(), 0u);  // in-flight SDU reclaimed on close
  world_.channel_model() = phy::ChannelModel{0.0};
  run_for(sim::Duration::sec(2));
  EXPECT_EQ(rx, 0);  // never delivered post-mortem
}

TEST_F(ConnectionTest, RadioOffBlocksGapAndStarvesConnections) {
  // Crash-fault primitive: a powered-off controller grants no event slots, so
  // its peers lose connections via the natural supervision timeout, and it
  // neither advertises nor initiates until powered back on.
  Controller& a = add(1);
  Controller& b = add(2);
  Connection& c = world_.open_connection(a, b, params(), sim::TimePoint::origin() +
                                                             sim::Duration::ms(10));
  run_for(sim::Duration::sec(1));
  ASSERT_TRUE(c.is_open());
  b.set_radio_on(false);
  EXPECT_FALSE(b.radio_on());
  b.start_advertising();
  EXPECT_FALSE(b.is_advertising());
  run_for(sim::Duration::sec(3));
  EXPECT_FALSE(c.is_open());
  EXPECT_EQ(c.link_stats().conn_losses, 1u);
  b.set_radio_on(true);
  b.start_advertising();
  EXPECT_TRUE(b.is_advertising());
}

// Property sweep: across channel PERs, everything sent is eventually
// delivered exactly once and LL PDR tracks 1 - PER.
class ConnectionPerSweep : public ::testing::TestWithParam<double> {};

TEST_P(ConnectionPerSweep, ReliableInOrderDelivery) {
  const double per = GetParam();
  sim::Simulator simu{7};
  BleWorld world{simu, phy::ChannelModel{per}};
  Controller& a = world.add_node(1, 1.0);
  Controller& b = world.add_node(2, -1.0);
  ConnParams p;
  p.interval = sim::Duration::ms(50);
  p.supervision_timeout = sim::Duration::sec(4);
  Connection& c = world.open_connection(a, b, p, sim::TimePoint::origin() +
                                                     sim::Duration::ms(10));
  std::vector<std::uint8_t> seen;
  Controller::HostCallbacks cb;
  cb.on_sdu = [&](Connection&, std::vector<std::uint8_t> sdu, sim::TimePoint) {
    seen.push_back(sdu.at(0));
  };
  b.set_host(std::move(cb));

  for (std::uint8_t i = 0; i < 40; ++i) {
    simu.run_until(simu.now() + sim::Duration::ms(500));
    ASSERT_TRUE(a.l2cap_send(c, std::vector<std::uint8_t>(90, i)));
  }
  simu.run_until(simu.now() + sim::Duration::sec(20));

  ASSERT_EQ(seen.size(), 40u);
  for (std::uint8_t i = 0; i < 40; ++i) EXPECT_EQ(seen[i], i);  // in order
  if (per > 0.0) {
    EXPECT_NEAR(c.link_stats().ll_pdr(), 1.0 - per, 0.15);
  }
}

INSTANTIATE_TEST_SUITE_P(PerLevels, ConnectionPerSweep,
                         ::testing::Values(0.0, 0.01, 0.05, 0.1, 0.25));

}  // namespace
}  // namespace mgap::ble
