// Unit tests: advertising / scanning / connection establishment (GAP), with
// the section 4.2 timing (90 ms advertising interval, 100 ms scan window,
// 10-100 ms reconnect delays).

#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "ble/world.hpp"
#include "sim/simulator.hpp"

namespace mgap::ble {
namespace {

class GapTest : public ::testing::Test {
 protected:
  GapTest() : world_{sim_, phy::ChannelModel{0.0}} {}

  ConnParams params() {
    ConnParams p;
    p.interval = sim::Duration::ms(75);
    p.supervision_timeout = sim::Duration::sec(2);
    return p;
  }

  void run_for(sim::Duration d) { sim_.run_until(sim_.now() + d); }

  sim::Simulator sim_{3};
  BleWorld world_;
};

TEST_F(GapTest, InitiatorConnectsToAdvertiser) {
  Controller& adv = world_.add_node(1, 0.0);
  Controller& ini = world_.add_node(2, 0.0);

  Connection* opened = nullptr;
  Controller::HostCallbacks cb;
  cb.on_open = [&](Connection& c) { opened = &c; };
  ini.set_host(std::move(cb));

  adv.start_advertising();
  ini.start_initiating(1, params());
  run_for(sim::Duration::sec(1));

  ASSERT_NE(opened, nullptr);
  EXPECT_EQ(&opened->coordinator(), &ini);  // the initiator dictates timing
  EXPECT_EQ(&opened->subordinate(), &adv);
  EXPECT_TRUE(opened->is_open());
  EXPECT_FALSE(ini.is_initiating(1));  // intent consumed
}

TEST_F(GapTest, ConnectDelayWithinAdvertisingCadence) {
  // First adv event lands within advDelay (10 ms); connect must happen well
  // within one advertising interval plus jitter.
  Controller& adv = world_.add_node(1, 0.0);
  Controller& ini = world_.add_node(2, 0.0);
  sim::TimePoint opened_at;
  Controller::HostCallbacks cb;
  cb.on_open = [&](Connection&) { opened_at = sim_.now(); };
  ini.set_host(std::move(cb));

  ini.start_initiating(1, params());
  run_for(sim::Duration::ms(500));
  const sim::TimePoint start = sim_.now();
  adv.start_advertising();
  run_for(sim::Duration::sec(1));

  ASSERT_NE(opened_at, sim::TimePoint{});
  EXPECT_LE(opened_at - start, sim::Duration::ms(110));
}

TEST_F(GapTest, NoConnectWithoutScanning) {
  Controller& adv = world_.add_node(1, 0.0);
  world_.add_node(2, 0.0);
  adv.start_advertising();
  run_for(sim::Duration::sec(2));
  EXPECT_EQ(world_.connections_created(), 0u);
  EXPECT_GT(adv.activity().adv_events, 10u);  // it did advertise
}

TEST_F(GapTest, StopAdvertisingHaltsEvents) {
  Controller& adv = world_.add_node(1, 0.0);
  adv.start_advertising();
  run_for(sim::Duration::sec(1));
  const auto events = adv.activity().adv_events;
  adv.stop_advertising();
  run_for(sim::Duration::sec(1));
  EXPECT_EQ(adv.activity().adv_events, events);
}

TEST_F(GapTest, TwoInitiatorsBothConnectEventually) {
  Controller& adv = world_.add_node(1, 0.0);
  Controller& b = world_.add_node(2, 0.0);
  Controller& c = world_.add_node(3, 0.0);
  adv.start_advertising();
  b.start_initiating(1, params());
  c.start_initiating(1, params());
  run_for(sim::Duration::sec(2));
  EXPECT_NE(b.connection_to(1), nullptr);
  EXPECT_NE(c.connection_to(1), nullptr);
  EXPECT_EQ(adv.connections().size(), 2u);
}

TEST_F(GapTest, AnchorLiesWithinTransmitWindow) {
  Controller& adv = world_.add_node(1, 0.0);
  Controller& ini = world_.add_node(2, 0.0);
  Connection* opened = nullptr;
  Controller::HostCallbacks cb;
  cb.on_open = [&](Connection& conn) { opened = &conn; };
  ini.set_host(std::move(cb));
  adv.start_advertising();
  ini.start_initiating(1, params());
  run_for(sim::Duration::ms(200));
  ASSERT_NE(opened, nullptr);
  const sim::Duration offset = opened->next_anchor() - sim_.now();
  EXPECT_GE(offset, sim::Duration{});
  EXPECT_LE(offset, params().interval + sim::Duration::ms_f(2.5));
}

TEST_F(GapTest, ReconnectAfterSupervisionLossViaGap) {
  // Manual reconnect loop (what statconn automates): when the connection
  // dies, the subordinate advertises again and the coordinator re-initiates.
  Controller& adv = world_.add_node(1, 0.0);
  Controller& ini = world_.add_node(2, 0.0);

  int opens = 0;
  Controller::HostCallbacks cb;
  cb.on_open = [&](Connection&) { ++opens; };
  cb.on_close = [&](Connection&, DisconnectReason) {
    adv.start_advertising();
    ini.start_initiating(1, params());
  };
  ini.set_host(std::move(cb));

  adv.start_advertising();
  ini.start_initiating(1, params());
  run_for(sim::Duration::ms(300));
  ASSERT_EQ(opens, 1);

  ini.connection_to(1)->close(DisconnectReason::kSupervisionTimeout);
  run_for(sim::Duration::sec(1));
  EXPECT_EQ(opens, 2);
  EXPECT_NE(ini.connection_to(1), nullptr);
}

TEST_F(GapTest, AdvertisingEventsRespectJitteredInterval) {
  Controller& adv = world_.add_node(1, 0.0);
  adv.start_advertising();
  run_for(sim::Duration::sec(10));
  // interval 90 ms + U[0,10] ms jitter -> ~105 events in 10 s.
  EXPECT_NEAR(static_cast<double>(adv.activity().adv_events), 105.0, 8.0);
}

TEST_F(GapTest, ScannerBusyRadioMissesAdvEvent) {
  // A pending radio claim on the scanner makes it deaf for that span.
  Controller& adv = world_.add_node(1, 0.0);
  Controller& ini = world_.add_node(2, 0.0);
  // Block the initiator's radio for 10 s with a fake claim.
  ASSERT_TRUE(ini.scheduler().try_claim(sim_.now(), sim_.now() + sim::Duration::sec(10),
                                        /*owner=*/12345));
  adv.start_advertising();
  ini.start_initiating(1, params());
  run_for(sim::Duration::sec(5));
  EXPECT_EQ(ini.connection_to(1), nullptr);
  ini.scheduler().release(12345);
  run_for(sim::Duration::sec(1));
  EXPECT_NE(ini.connection_to(1), nullptr);
}

TEST_F(GapTest, NeighborTableRowsFollowTheNodeSet) {
  // Candidate rows are resolved against the nodes present: an id never added
  // is skipped, a node added after routing began is picked up, and an
  // advertiser without a row reaches nobody. Each routed event walks its
  // row twice: once for observers, once for initiators.
  world_.set_neighbor_table({{1, {2, 3, 99}}, {4, {}}});
  Controller& adv = world_.add_node(1, 0.0);
  Controller& early = world_.add_node(2, 0.0);
  std::map<NodeId, int> heard;
  early.start_observing([&](NodeId from, std::uint16_t) { ++heard[from]; });
  adv.start_advertising();
  run_for(sim::Duration::sec(1));
  ASSERT_GT(world_.adv_events_routed(), 0u);
  EXPECT_EQ(world_.adv_candidates_scanned(), 2 * world_.adv_events_routed());
  EXPECT_GT(heard[1], 0);

  Controller& late = world_.add_node(3, 0.0);
  late.start_observing([&](NodeId from, std::uint16_t) { heard[from] += 1000; });
  const std::uint64_t routed = world_.adv_events_routed();
  const std::uint64_t scanned = world_.adv_candidates_scanned();
  run_for(sim::Duration::sec(1));
  EXPECT_EQ(world_.adv_candidates_scanned() - scanned,
            4 * (world_.adv_events_routed() - routed));
  EXPECT_GE(heard[1], 1000);

  adv.stop_advertising();
  early.start_advertising();
  const std::uint64_t scanned_before_2 = world_.adv_candidates_scanned();
  run_for(sim::Duration::sec(1));
  EXPECT_EQ(world_.adv_candidates_scanned(), scanned_before_2);
  EXPECT_EQ(heard.count(2), 0u);
  EXPECT_EQ(world_.adv_full_scans(), 0u);
}

}  // namespace
}  // namespace mgap::ble
