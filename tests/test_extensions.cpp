// Tests for the smaller platform extensions: the LE 2M PHY, typed event tracing,
// and the interplay of extensions with the core experiment machinery.

#include <gtest/gtest.h>

#include <algorithm>

#include "ble/world.hpp"
#include "core/nimble_netif.hpp"
#include "core/statconn.hpp"
#include "obs/recorder.hpp"
#include "phy/ble_phy.hpp"
#include "sim/simulator.hpp"

namespace mgap {
namespace {

TEST(Phy2M, AirtimeHalvesRoughly) {
  // 2M: half the per-byte time, one extra preamble byte.
  EXPECT_EQ(phy::ll_airtime(106, phy::PhyMode::k1M), sim::Duration::us(928));
  EXPECT_EQ(phy::ll_airtime(106, phy::PhyMode::k2M), sim::Duration::us((106 + 11) * 4));
  EXPECT_LT(phy::pair_time(251, 0, phy::PhyMode::k2M),
            phy::pair_time(251, 0, phy::PhyMode::k1M));
}

TEST(Phy2M, DefaultsTo1M) {
  const ble::ConnParams p;
  EXPECT_EQ(p.phy, phy::PhyMode::k1M);
  EXPECT_EQ(phy::ll_airtime(10), phy::ll_airtime(10, phy::PhyMode::k1M));
}

TEST(Phy2M, ConnectionCarriesMoreDataPerEvent) {
  // Saturated single link at identical parameters: 2M must deliver roughly
  // twice the SDUs per second.
  std::uint64_t delivered[2] = {0, 0};
  for (const auto mode : {phy::PhyMode::k1M, phy::PhyMode::k2M}) {
    sim::Simulator simu{31};
    ble::BleWorld world{simu, phy::ChannelModel{0.0}};
    // Raise the host-side caps so the PHY rate is the binding constraint.
    ble::ControllerConfig cc;
    cc.conn.max_pairs_per_event = 120;
    cc.l2cap.initial_credits = 120;
    cc.buffer_bytes = 40000;
    ble::Controller& a = world.add_node(1, 0.0, cc);
    ble::Controller& b = world.add_node(2, 0.0, cc);
    ble::ConnParams p;
    p.interval = sim::Duration::ms(50);
    p.phy = mode;
    ble::Connection& c = world.open_connection(a, b, p, sim::TimePoint::origin() +
                                                            sim::Duration::ms(10));
    std::uint64_t rx = 0;
    ble::Controller::HostCallbacks cb;
    cb.on_sdu = [&rx](ble::Connection&, std::vector<std::uint8_t>, sim::TimePoint) {
      ++rx;
    };
    b.set_host(std::move(cb));
    // Keep the queue full.
    ble::Controller::HostCallbacks cba;
    cba.on_tx_space = [&](ble::Connection& conn) {
      while (a.l2cap_send(conn, std::vector<std::uint8_t>(240, 1))) {
      }
    };
    a.set_host(std::move(cba));
    while (a.l2cap_send(c, std::vector<std::uint8_t>(240, 1))) {
    }
    simu.run_until(sim::TimePoint::origin() + sim::Duration::sec(10));
    delivered[mode == phy::PhyMode::k2M ? 1 : 0] = rx;
  }
  EXPECT_GT(static_cast<double>(delivered[1]),
            1.6 * static_cast<double>(delivered[0]));
}

TEST(Tracing, EmitsGapAndLinkLayerRecords) {
  sim::Simulator simu{5};
  obs::Recorder recorder;
  recorder.collect(true);
  ble::BleWorld world{simu, phy::ChannelModel{0.0}};
  world.set_recorder(&recorder);

  ble::Controller& a = world.add_node(1, 0.0);
  ble::Controller& b = world.add_node(2, 0.0);
  ble::ConnParams p;
  ble::Connection& c = world.open_connection(a, b, p, sim::TimePoint::origin() +
                                                          sim::Duration::ms(10));
  simu.run_until(sim::TimePoint::origin() + sim::Duration::sec(1));
  c.close();

  const std::vector<obs::Event>& events = recorder.collected();
  const auto open = std::find_if(events.begin(), events.end(), [](const obs::Event& e) {
    return e.type == obs::EventType::kConnOpen;
  });
  ASSERT_NE(open, events.end());
  EXPECT_EQ(open->node, 1u);
  EXPECT_EQ(open->id, c.id());
  EXPECT_EQ(open->a, 2u);
  const auto close = std::find_if(open, events.end(), [](const obs::Event& e) {
    return e.type == obs::EventType::kConnClose;
  });
  ASSERT_NE(close, events.end());
  EXPECT_EQ(close->id, c.id());
  EXPECT_EQ(close->flags, static_cast<std::uint16_t>(ble::DisconnectReason::kLocalClose));
}

TEST(StatconnPhy, PropagatesPhyMode) {
  sim::Simulator simu{9};
  ble::BleWorld world{simu, phy::ChannelModel{0.0}};
  ble::Controller& a = world.add_node(1, 0.0);
  ble::Controller& b = world.add_node(2, 0.0);
  core::NimbleNetif na{a};
  core::NimbleNetif nb{b};
  core::StatconnConfig cfg;
  cfg.phy = phy::PhyMode::k2M;
  core::Statconn sa{na, cfg};
  core::Statconn sb{nb, cfg};
  sa.add_subordinate_link(2);
  sb.add_coordinator_link(1);
  sa.start();
  sb.start();
  simu.run_until(sim::TimePoint::origin() + sim::Duration::sec(1));
  ble::Connection* conn = b.connection_to(1);
  ASSERT_NE(conn, nullptr);
  EXPECT_EQ(conn->params().phy, phy::PhyMode::k2M);
}

}  // namespace
}  // namespace mgap
