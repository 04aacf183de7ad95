// Tests for the link-PER validity contract (phy/link_per.hpp): a connection
// keeps the model's answer until it lapses or a new model is installed, and
// that must be exact. Each differential test runs a scenario twice — once as
// is, once with a 1 ms periodic event that re-installs the current model,
// which bumps BleWorld::link_model_version and so forces every connection
// event to ask the model again — and requires identical statistics.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ble/world.hpp"
#include "fault/injector.hpp"
#include "sim/simulator.hpp"
#include "testbed/mobility.hpp"
#include "topo/channel.hpp"

namespace mgap {
namespace {

using sim::Duration;
using sim::TimePoint;

TimePoint at_ms(std::int64_t ms) { return TimePoint::origin() + Duration::ms(ms); }

/// Re-installs the world's current link model every millisecond.
void bump_link_model_every_ms(sim::Simulator& sim, ble::BleWorld& world) {
  sim.schedule_in(Duration::ms(1), [&sim, &world] {
    world.set_link_per(world.link_per_fn());
    bump_link_model_every_ms(sim, world);
  });
}

/// Every link's counters and every node's radio activity, as one string.
std::string summary(const ble::BleWorld& world) {
  std::ostringstream out;
  for (const ble::LinkStats* s : world.all_link_stats()) {
    out << s->coordinator << '-' << s->subordinate << " ok=" << s->events_ok
        << " missed=" << s->events_missed << " aborted=" << s->events_aborted
        << " tx=" << s->pdu_tx << " pdu_ok=" << s->pdu_ok << " retrans=" << s->pdu_retrans
        << " losses=" << s->conn_losses << " reconnects=" << s->reconnects << " chan";
    for (std::size_t ch = 0; ch < s->chan_tx.size(); ++ch) {
      out << ' ' << s->chan_ok[ch] << '/' << s->chan_tx[ch];
    }
    out << '\n';
  }
  for (const ble::Controller* c : world.nodes()) {
    const ble::RadioActivity& a = c->activity();
    out << "node " << c->id() << " coord=" << a.conn_events_coord
        << " sub=" << a.conn_events_sub << " pairs=" << a.packet_pairs
        << " bytes=" << a.bytes_tx << '/' << a.bytes_rx << '\n';
  }
  return out.str();
}

/// Two nodes `d` meters apart under the geometric channel model.
phy::LinkPerFn geometric_pair(double d) {
  topo::TopoSpec spec;
  auto placement = std::make_shared<topo::Placement>();
  placement->ids = {1, 2};
  placement->positions = {topo::Point{0.0, 0.0}, topo::Point{d, 0.0}};
  return topo::make_geometric_link_per(std::move(placement), spec);
}

/// A distance at which the geometric model loses some but not most PDUs.
double lossy_distance() {
  for (double d = 1.0; d < 1000.0; d += 1.0) {
    if (geometric_pair(d)(1, 2).per >= 0.15) return d;
  }
  return 0.0;
}

/// Keeps one 40-byte PDU queued on each side of `conn` every 250 ms.
void offer_traffic(sim::Simulator& sim, ble::Connection& conn) {
  sim.schedule_in(Duration::ms(250), [&sim, &conn] {
    if (!conn.is_open()) return;
    for (const ble::Role r : {ble::Role::kCoordinator, ble::Role::kSubordinate}) {
      (void)conn.enqueue(r, ble::LlPdu{std::vector<std::uint8_t>(40, 0xA5), sim.now()});
    }
    offer_traffic(sim, conn);
  });
}

fault::FaultEvent link_window(fault::FaultKind kind, std::int64_t begin_ms,
                              std::int64_t end_ms, double per) {
  fault::FaultEvent ev;
  ev.kind = kind;
  ev.at = at_ms(begin_ms);
  ev.duration = Duration::ms(end_ms - begin_ms);
  ev.node = 1;
  ev.peer = 2;
  ev.per = per;
  return ev;
}

// Anchors of the connections below: 10 ms + k * 100 ms, exactly (the
// coordinator's clock has no drift).
ble::Connection& open_pair(ble::BleWorld& world) {
  ble::Controller& a = world.add_node(1, 0.0);
  ble::Controller& b = world.add_node(2, 3.0);
  ble::ConnParams p;
  p.interval = Duration::ms(100);
  p.supervision_timeout = Duration::sec(4);
  return world.open_connection(a, b, p, at_ms(10));
}

/// Geometric world with fault windows whose edges fall on anchors, armed
/// at `arm_at` (no faults when unset). Armed at the origin, before the
/// connection opens, every begin/end event was scheduled before the
/// connection event sharing its instant, so the fault fires first. Armed at
/// 2050 ms instead, the connection events at 2110 ms were already scheduled
/// (at 2010 ms), so they fire first there: the first window's end and the
/// blackout's begin. The first window's begin then lies in the past and
/// takes effect at arming, through the newly installed model.
std::string geometric_fault_run(std::optional<TimePoint> arm_at, bool reference) {
  sim::Simulator sim{11};
  ble::BleWorld world{sim, phy::ChannelModel{0.01}};
  world.set_link_per(geometric_pair(lossy_distance()));
  fault::FaultInjector injector{sim, &world, {}};
  const std::vector<fault::FaultEvent> plan = {
      link_window(fault::FaultKind::kAttenuate, 1010, 2110, 0.6),
      link_window(fault::FaultKind::kBlackout, 2110, 2410, 1.0),
      link_window(fault::FaultKind::kAttenuate, 3010, 4010, 0.3),
  };
  if (arm_at == TimePoint::origin()) {
    injector.arm(plan);
  } else if (arm_at) {
    sim.schedule_at(*arm_at, [&injector, plan] { injector.arm(plan); });
  }
  ble::Connection& conn = open_pair(world);
  offer_traffic(sim, conn);
  if (reference) bump_link_model_every_ms(sim, world);
  sim.run_until(at_ms(6000));
  return summary(world);
}

TEST(LinkPerCache, GeometricWithFaultWindowsMatchesPerEventModel) {
  ASSERT_GT(lossy_distance(), 0.0);
  const std::string faults_first = geometric_fault_run(TimePoint::origin(), false);
  EXPECT_EQ(faults_first, geometric_fault_run(TimePoint::origin(), true));
  const std::string events_first = geometric_fault_run(at_ms(2050), false);
  EXPECT_EQ(events_first, geometric_fault_run(at_ms(2050), true));
  // The windows matter, also when armed mid-run: the blackout alone aborts
  // every event it covers.
  const std::string no_faults = geometric_fault_run(std::nullopt, false);
  EXPECT_NE(faults_first, no_faults);
  EXPECT_NE(events_first, no_faults);
}

/// test_mobility's scenario, a connection to a node that roams in and out of
/// range, with an attenuate window composed over the mobility model.
std::string mobility_run(bool reference) {
  sim::Simulator sim{4};
  ble::BleWorld world{sim, phy::ChannelModel{0.0}};
  testbed::MobilityConfig cfg;
  cfg.width = 20.0;
  cfg.height = 20.0;
  testbed::RandomWaypointMobility mob{sim, cfg};
  mob.place_static(1, testbed::Vec2{0.0, 0.0});
  mob.add_mobile(2, testbed::Vec2{5.0, 0.0});
  world.set_link_per(make_link_per(mob, testbed::RangeModel{8.0, 15.0}));
  fault::FaultInjector injector{sim, &world, {}};
  injector.arm({link_window(fault::FaultKind::kAttenuate, 20'010, 40'010, 0.2)});
  mob.start();
  ble::Connection& conn = open_pair(world);
  offer_traffic(sim, conn);
  if (reference) bump_link_model_every_ms(sim, world);
  sim.run_until(at_ms(60'000));
  return summary(world);
}

TEST(LinkPerCache, MobilityMatchesPerEventModel) {
  const std::string cached = mobility_run(false);
  EXPECT_EQ(cached, mobility_run(true));
  // The node does leave range: the roaming shows up as aborted events.
  EXPECT_NE(cached.find("aborted="), std::string::npos);
  EXPECT_EQ(cached.find("aborted=0 "), std::string::npos);
}

// How often the model is asked.
TEST(LinkPerCache, StaticModelIsAskedOncePerConnection) {
  sim::Simulator sim{5};
  ble::BleWorld world{sim, phy::ChannelModel{0.01}};
  int calls = 0;
  world.set_link_per([&calls, geo = geometric_pair(lossy_distance())](NodeId a, NodeId b) {
    ++calls;
    return geo(a, b);
  });
  ble::Connection& first = open_pair(world);
  sim.run_until(at_ms(2000));
  ASSERT_GT(first.link_stats().events_ok, 10u);
  EXPECT_EQ(calls, 1);
  first.close();
  ble::ConnParams p;
  p.interval = Duration::ms(50);
  world.open_connection(*world.find(1), *world.find(2), p, sim.now() + Duration::ms(5));
  sim.run_until(at_ms(4000));
  EXPECT_EQ(calls, 2);
}

TEST(LinkPerCache, PlainHookIsAskedOnEveryExchange) {
  sim::Simulator sim{6};
  ble::BleWorld world{sim, phy::ChannelModel{0.01}};
  std::uint64_t calls = 0;
  world.set_link_per([&calls](NodeId, NodeId) {
    ++calls;
    return 0.1;
  });
  ble::Connection& conn = open_pair(world);
  sim.run_until(at_ms(3000));
  const ble::LinkStats& s = conn.link_stats();
  EXPECT_GT(s.events_aborted, 0u);
  EXPECT_EQ(calls, s.events_ok + s.events_aborted);
}

TEST(LinkPerCache, InstallingAModelReachesOpenConnections) {
  sim::Simulator sim{8};
  ble::BleWorld world{sim, phy::ChannelModel{0.0}};
  world.set_link_per(geometric_pair(1.0));  // in range for good
  ble::Connection& conn = open_pair(world);
  sim.run_until(at_ms(1000));
  ASSERT_TRUE(conn.is_open());
  world.set_link_per([](NodeId, NodeId) { return 1.0; });  // out of range
  sim.run_until(at_ms(6000));
  EXPECT_FALSE(conn.is_open());
  EXPECT_EQ(conn.link_stats().conn_losses, 1u);
}

TEST(LinkPerCache, FaultWindowsAskAgainAtEachEdgeOfTheirLink) {
  sim::Simulator sim{7};
  ble::BleWorld world{sim, phy::ChannelModel{0.01}};
  int calls = 0;
  world.set_link_per([&calls, geo = geometric_pair(lossy_distance())](NodeId a, NodeId b) {
    ++calls;
    return geo(a, b);
  });
  fault::FaultInjector injector{sim, &world, {}};
  fault::FaultEvent elsewhere = link_window(fault::FaultKind::kBlackout, 500, 700, 1.0);
  elsewhere.node = 3;
  elsewhere.peer = 4;
  injector.arm({link_window(fault::FaultKind::kAttenuate, 1010, 1510, 0.5),
                link_window(fault::FaultKind::kAttenuate, 1210, 2010, 0.2), elsewhere});
  open_pair(world);
  sim.run_until(at_ms(3000));
  // The first exchange, then one per edge of this link's windows (1010,
  // 1210, 1510, 2010 ms); the other link's window asks nothing.
  EXPECT_EQ(calls, 5);
}

}  // namespace
}  // namespace mgap
