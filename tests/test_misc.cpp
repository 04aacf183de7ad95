// Edge-case coverage across modules: star-topology experiments, CoAP error
// paths, formatting helpers, and defensive behaviours.

#include <gtest/gtest.h>

#include "app/coap_endpoint.hpp"
#include "helpers/pipe_netif.hpp"
#include "net/pktbuf.hpp"
#include "testbed/experiment.hpp"

namespace mgap {
namespace {

TEST(StarExperiment, Rfc7668StarWorks) {
  // The RFC 7668 star of Figure 1 (left): all producers one hop from the
  // consumer, which is subordinate of every connection — the maximum-shading
  // configuration. Randomized intervals must hold it together.
  testbed::ExperimentConfig cfg;
  cfg.topology = testbed::Topology::star(8);
  cfg.duration = sim::Duration::minutes(5);
  cfg.policy = core::IntervalPolicy::randomized(sim::Duration::ms(65),
                                                sim::Duration::ms(85));
  cfg.seed = 5;
  testbed::Experiment e{cfg};
  e.run();
  EXPECT_EQ(e.summary().conn_losses, 0u);
  EXPECT_GT(e.summary().coap_pdr, 0.999);
  // All 7 links terminate at node 1 as subordinate.
  EXPECT_EQ(e.controller(1)->connections().size(), 7u);
  for (ble::Connection* c : e.controller(1)->connections()) {
    EXPECT_EQ(c->role_of(*e.controller(1)), ble::Role::kSubordinate);
  }
}

TEST(StarExperiment, StaticStarSheds) {
  // Seven same-interval connections on one subordinate: shading pressure is
  // maximal; with modest drifts a 2 h run must lose connections.
  testbed::ExperimentConfig cfg;
  cfg.topology = testbed::Topology::star(8);
  cfg.duration = sim::Duration::hours(2);
  cfg.policy = core::IntervalPolicy::fixed(sim::Duration::ms(75));
  cfg.seed = 5;
  testbed::Experiment e{cfg};
  e.run();
  EXPECT_GE(e.summary().conn_losses, 1u);
}

TEST(CoapServer, UnknownResourceGets404) {
  sim::Simulator sim{1};
  testhelpers::PipeNet net{sim};
  net::IpStack sa{sim, 1, net.add(1)};
  net::IpStack sb{sim, 2, net.add(2)};
  sa.routes().add_host_route(net::Ipv6Addr::site(2), net::Ipv6Addr::site(2));
  sb.routes().add_host_route(net::Ipv6Addr::site(1), net::Ipv6Addr::site(1));
  app::CoapServer server{sb};
  server.on_get("gap", [](const app::CoapMessage&, const net::Ipv6Addr&) {
    app::CoapMessage rsp;
    rsp.code = app::kCodeContent;
    return rsp;
  });
  app::CoapClient client{sim, sa, 40000};
  std::uint8_t code = 0;
  client.get(net::Ipv6Addr::site(2), "nosuch", {},
             [&](const app::CoapMessage& rsp, sim::Duration) { code = rsp.code; });
  sim.run_until(sim::TimePoint::origin() + sim::Duration::sec(1));
  EXPECT_EQ(code, app::kCodeNotFound);
}

TEST(CoapClient, StaleResponseCounted) {
  sim::Simulator sim{2};
  testhelpers::PipeNet net{sim};
  net::IpStack sa{sim, 1, net.add(1)};
  net::IpStack sb{sim, 2, net.add(2)};
  sa.routes().add_host_route(net::Ipv6Addr::site(2), net::Ipv6Addr::site(2));
  sb.routes().add_host_route(net::Ipv6Addr::site(1), net::Ipv6Addr::site(1));
  app::CoapServer server{sb};
  server.on_get("gap", [](const app::CoapMessage&, const net::Ipv6Addr&) {
    app::CoapMessage rsp;
    rsp.code = app::kCodeContent;
    return rsp;
  });
  app::CoapClient client{sim, sa, 40000};
  client.get(net::Ipv6Addr::site(2), "gap", {}, nullptr);
  sim.run_until(sim.now() + sim::Duration::us(500));  // before the reply lands
  client.expire_pending(sim::Duration{});             // forget the request
  sim.run_until(sim::TimePoint::origin() + sim::Duration::sec(1));
  EXPECT_EQ(client.responses_rx(), 0u);
  EXPECT_EQ(client.stale_responses(), 1u);
}

TEST(Pktbuf, FreeBeyondUsedClamps) {
  net::Pktbuf buf{100};
  ASSERT_TRUE(buf.alloc(10));
#ifdef NDEBUG
  buf.free(50);  // defensive clamp, not UB
  EXPECT_EQ(buf.used(), 0u);
#else
  EXPECT_DEATH(buf.free(50), "underflow");  // builds with asserts stop at the bug
#endif
}

TEST(DurationStr, PicksReadableUnit) {
  EXPECT_EQ(sim::Duration::sec(2).str(), "2s");
  EXPECT_EQ(sim::Duration::ms(75).str(), "75ms");
  EXPECT_EQ(sim::Duration::us(150).str(), "150us");
  EXPECT_EQ(sim::Duration::ns(7).str(), "7ns");
}

TEST(Experiment, IphcCompressionEndToEnd) {
  // The full tree experiment also runs with IPHC framing (smaller on-air
  // packets; the paper's accounting uses uncompressed framing).
  testbed::ExperimentConfig cfg;
  cfg.topology = testbed::Topology::tree15();
  cfg.duration = sim::Duration::sec(60);
  cfg.compression = net::CompressionMode::kIphc;
  cfg.seed = 6;
  testbed::Experiment e{cfg};
  e.run();
  EXPECT_GT(e.summary().coap_pdr, 0.99);
}

TEST(Experiment, Ieee802154WithFragmentation) {
  // Payload large enough that 6LoWPAN must fragment over the 802.15.4 MTU.
  testbed::ExperimentConfig cfg;
  cfg.radio = testbed::ExperimentConfig::Radio::kIeee802154;
  cfg.topology = testbed::Topology::star(4);
  cfg.duration = sim::Duration::minutes(2);
  cfg.payload_len = 180;  // IP packet ~241 B -> 3 fragments
  cfg.producer_interval = sim::Duration::sec(2);
  cfg.seed = 8;
  testbed::Experiment e{cfg};
  e.run();
  EXPECT_GT(e.summary().coap_pdr, 0.9);
}

TEST(Experiment, SupervisionTimeoutScalesLosses) {
  // Longer supervision timeouts ride out longer overlaps: strictly fewer or
  // equal losses than a short timeout on the same seed.
  std::uint64_t losses[2];
  int i = 0;
  for (const auto timeout : {sim::Duration::sec(1), sim::Duration::sec(8)}) {
    testbed::ExperimentConfig cfg;
    cfg.topology = testbed::Topology::tree15();
    cfg.duration = sim::Duration::hours(2);
    cfg.supervision_timeout = timeout;
    cfg.seed = 2;
    testbed::Experiment e{cfg};
    e.run();
    losses[i++] = e.summary().conn_losses;
  }
  EXPECT_GE(losses[0], losses[1]);
}

}  // namespace
}  // namespace mgap
