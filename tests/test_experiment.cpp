// Integration tests: full-stack experiments through the testbed harness —
// multi-hop CoAP over BLE and over IEEE 802.15.4, workload plumbing, and the
// end-to-end manifestation of connection shading and its mitigation.

#include <gtest/gtest.h>

#include "testbed/experiment.hpp"

namespace mgap::testbed {
namespace {

ExperimentConfig short_tree(std::uint64_t seed = 1) {
  ExperimentConfig cfg;
  cfg.topology = Topology::tree15();
  cfg.duration = sim::Duration::sec(60);
  cfg.seed = seed;
  return cfg;
}

TEST(ExperimentIntegration, TreeModerateLoadDeliversReliably) {
  Experiment e{short_tree()};
  e.run();
  const auto s = e.summary();
  // 14 producers at ~1 Hz for 60 s.
  EXPECT_NEAR(static_cast<double>(s.sent), 14.0 * 58.0, 60.0);
  EXPECT_GT(s.coap_pdr, 0.99);
  EXPECT_GT(s.ll_pdr, 0.95);
  // RTTs in the 1x..4x connection-interval band (section 5.1).
  EXPECT_GT(s.rtt_p50, sim::Duration::ms(75));
  EXPECT_LT(s.rtt_p50, sim::Duration::ms(300));
}

TEST(ExperimentIntegration, LineTopologyScalesRttWithHops) {
  ExperimentConfig tree = short_tree();
  ExperimentConfig line = short_tree();
  line.topology = Topology::line15();
  Experiment et{tree};
  et.run();
  Experiment el{line};
  el.run();
  const double ratio = el.summary().rtt_p50.to_ms_f() / et.summary().rtt_p50.to_ms_f();
  // Mean hops 7.5 vs 2.14 -> paper reports factor ~3.5.
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 5.0);
  EXPECT_GT(el.summary().coap_pdr, 0.98);
}

TEST(ExperimentIntegration, ConsumerSeesEveryAckedRequest) {
  Experiment e{short_tree(7)};
  e.run();
  EXPECT_EQ(e.consumer().requests_rx(), e.consumer().responses_tx());
  EXPECT_GE(e.consumer().requests_rx(), e.metrics().total_acked());
}

TEST(ExperimentIntegration, Ieee802154SameWorkloadRuns) {
  ExperimentConfig cfg = short_tree();
  cfg.radio = ExperimentConfig::Radio::kIeee802154;
  Experiment e{cfg};
  e.run();
  const auto s = e.summary();
  EXPECT_GT(s.coap_pdr, 0.75);
  EXPECT_EQ(s.conn_losses, 0u);  // connectionless link layer
  // Latency advantage over BLE (Figure 10b): p50 well below one connection
  // interval.
  EXPECT_LT(s.rtt_p50, sim::Duration::ms(75));
}

TEST(ExperimentIntegration, HighLoadOverflowsBuffers) {
  // 50 ms producer interval: the offered load exceeds the radio capacity of
  // the root's three links regardless of event phasing, so the shared packet
  // buffers must overflow (section 5.2).
  ExperimentConfig cfg = short_tree();
  cfg.duration = sim::Duration::minutes(5);
  cfg.producer_interval = sim::Duration::ms(50);
  cfg.producer_jitter = sim::Duration::ms(25);
  Experiment e{cfg};
  e.run();
  const auto s = e.summary();
  EXPECT_LT(s.coap_pdr, 0.9);  // clearly degraded (section 5.2)
  EXPECT_GT(s.pktbuf_drops, 0u);
}

TEST(ExperimentIntegration, StaticIntervalsLoseConnectionsOverTime) {
  // 2 h with +-5 ppm drifts: shading must strike at least once somewhere.
  ExperimentConfig cfg = short_tree(3);
  cfg.duration = sim::Duration::hours(2);
  Experiment e{cfg};
  e.run();
  EXPECT_GE(e.summary().conn_losses, 1u);
  EXPECT_EQ(e.summary().conn_losses, e.metrics().conn_losses().size());
}

TEST(ExperimentIntegration, RandomizedIntervalsPreventLosses) {
  ExperimentConfig cfg = short_tree(3);
  cfg.duration = sim::Duration::hours(2);
  cfg.policy = core::IntervalPolicy::randomized(sim::Duration::ms(65),
                                                sim::Duration::ms(85));
  Experiment e{cfg};
  e.run();
  EXPECT_EQ(e.summary().conn_losses, 0u);
  EXPECT_DOUBLE_EQ(e.summary().coap_pdr, 1.0);
}

TEST(ExperimentIntegration, JammedChannelHurtsWithoutExclusion) {
  ExperimentConfig with = short_tree(5);
  with.exclude_channel_22 = true;
  ExperimentConfig without = short_tree(5);
  without.exclude_channel_22 = false;
  Experiment ew{with};
  ew.run();
  Experiment eo{without};
  eo.run();
  // Using the jammed channel costs link-layer reliability.
  EXPECT_GT(ew.summary().ll_pdr, eo.summary().ll_pdr);
}

// The two ablation counters are registered only when nonzero, so a default
// run's counter set, and every campaign column derived from it, stays put.
TEST(ExperimentIntegration, AblationCountersAbsentByDefault) {
  Experiment e{short_tree()};
  e.run();
  const auto s = e.summary();
  EXPECT_FALSE(s.counters.contains("statconn.param_updates"));
  EXPECT_FALSE(s.counters.contains("ble.ch22_pdu_tx"));
}

TEST(ExperimentIntegration, ParamUpdateCounterSumsEveryStatconn) {
  ExperimentConfig cfg = short_tree();
  cfg.param_update_mitigation = true;
  Experiment e{cfg};
  e.run();
  std::uint64_t updates = 0;
  for (const NodeId n : cfg.topology.nodes) updates += e.statconn(n)->param_updates();
  ASSERT_GT(updates, 0u);
  const auto s = e.summary();
  ASSERT_TRUE(s.counters.contains("statconn.param_updates"));
  EXPECT_EQ(s.counters.at("statconn.param_updates"), static_cast<double>(updates));
}

TEST(ExperimentIntegration, Channel22CounterSumsEveryLink) {
  ExperimentConfig cfg = short_tree();
  cfg.exclude_channel_22 = false;
  Experiment e{cfg};
  e.run();
  std::uint64_t ch22_tx = 0;
  for (const ble::LinkStats* ls : e.ble_world()->all_link_stats()) {
    ch22_tx += ls->chan_tx[22];
  }
  ASSERT_GT(ch22_tx, 0u);
  const auto s = e.summary();
  ASSERT_TRUE(s.counters.contains("ble.ch22_pdu_tx"));
  EXPECT_EQ(s.counters.at("ble.ch22_pdu_tx"), static_cast<double>(ch22_tx));
}

TEST(ExperimentIntegration, DeterministicUnderSameSeed) {
  Experiment a{short_tree(11)};
  a.run();
  Experiment b{short_tree(11)};
  b.run();
  EXPECT_EQ(a.summary().sent, b.summary().sent);
  EXPECT_EQ(a.summary().acked, b.summary().acked);
  EXPECT_EQ(a.summary().conn_losses, b.summary().conn_losses);
  EXPECT_EQ(a.summary().rtt_p50, b.summary().rtt_p50);
}

TEST(ExperimentIntegration, GoldenMetricsPinSimulationOrder) {
  // Cross-build determinism guard for the simulator core. These exact values
  // were captured from the event-queue implementation that predates the
  // slot-map rewrite; the rewrite (and any future scheduler change) must
  // reproduce them bit-for-bit — same event order, same RNG draws, same
  // metrics. A legitimate model change that moves them should update this
  // golden deliberately, in its own commit.
  ExperimentConfig cfg;
  cfg.topology = Topology::tree15();
  cfg.duration = sim::Duration::minutes(2);
  cfg.seed = 42;
  cfg.producer_interval = sim::Duration::sec(1);
  cfg.producer_jitter = sim::Duration::ms(500);
  Experiment e{cfg};
  e.run();
  const auto& s = e.summary();
  EXPECT_EQ(s.sent, 1647u);
  EXPECT_EQ(s.acked, 1647u);
  EXPECT_EQ(s.rtt_p50.count_ns(), 209'080'004);
  EXPECT_EQ(s.rtt_p99.count_ns(), 368'473'491);
  EXPECT_EQ(s.conn_losses, 0u);
  EXPECT_EQ(s.reconnects, 0u);
  EXPECT_EQ(s.pktbuf_drops, 0u);
  ASSERT_TRUE(s.counters.contains("pktbuf.high_water"));
  EXPECT_EQ(s.counters.at("pktbuf.high_water"), 602.0);
  ASSERT_TRUE(s.counters.contains("radio.claims_granted"));
  EXPECT_EQ(s.counters.at("radio.claims_granted"), 48548.0);
  // Accounting canaries must not appear in a healthy run (their presence
  // would also change campaign CSV columns).
  EXPECT_FALSE(s.counters.contains("pktbuf.underflows"));
  EXPECT_FALSE(s.counters.contains("sixlo.reasm_evicted"));
}

TEST(ExperimentIntegration, SeedsChangeTheNoise) {
  Experiment a{short_tree(1)};
  a.run();
  Experiment b{short_tree(2)};
  b.run();
  // Different seeds, different jitter: sent counts differ.
  EXPECT_NE(a.summary().sent, b.summary().sent);
}

TEST(ExperimentIntegration, MetricsTimelineCoversRuntime) {
  Experiment e{short_tree()};
  e.run();
  const auto timeline = e.metrics().timeline();
  // 60 s at 10 s buckets.
  EXPECT_GE(timeline.size(), 5u);
  EXPECT_LE(timeline.size(), 8u);
  std::uint64_t sent = 0;
  for (const auto& b : timeline) sent += b.sent;
  EXPECT_EQ(sent, e.summary().sent);
}

TEST(ExperimentIntegration, EnergyActivityAccrues) {
  Experiment e{short_tree()};
  e.run();
  // The consumer holds 3 subordinate links: its subordinate event count
  // dominates; producers hold coordinator links.
  const auto& root_act = e.controller(1)->activity();
  EXPECT_GT(root_act.conn_events_sub, 2000u);  // 3 links * ~800 events
  const auto& leaf_act = e.controller(5)->activity();
  EXPECT_GT(leaf_act.conn_events_coord, 700u);
  EXPECT_GT(leaf_act.data_bytes_tx, 0u);
}

// Property sweep over connection intervals: the experiment machinery stays
// healthy and RTT grows monotonically with the interval (Figure 8a trend).
class IntervalSweep : public ::testing::TestWithParam<int> {};

TEST_P(IntervalSweep, RunsHealthy) {
  ExperimentConfig cfg;
  cfg.topology = Topology::tree15();
  cfg.duration = sim::Duration::sec(60);
  cfg.policy = core::IntervalPolicy::fixed(sim::Duration::ms(GetParam()));
  cfg.supervision_timeout = sim::max(sim::Duration::sec(2),
                                     sim::Duration::ms(GetParam()) * 6);
  cfg.seed = 9;
  Experiment e{cfg};
  e.run();
  EXPECT_GT(e.summary().coap_pdr, 0.9) << GetParam() << " ms";
  EXPECT_GT(e.summary().rtt_p50, sim::Duration::ms(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(ConnItvls, IntervalSweep, ::testing::Values(25, 50, 75, 100, 250));

}  // namespace
}  // namespace mgap::testbed
