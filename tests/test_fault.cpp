// Fault-injection subsystem tests: spec parsing and round-tripping, chaos
// sampling determinism, the injector's fault mechanics against a live
// Experiment (crash/reboot, blackout, interference, buffer pressure),
// overlapping windows and their scopes, and the campaign determinism
// contract with fault axes.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "campaign/writers.hpp"
#include "ble/world.hpp"
#include "fault/injector.hpp"
#include "fault/spec.hpp"
#include "sim/simulator.hpp"
#include "testbed/config_file.hpp"
#include "testbed/experiment.hpp"
#include "topo/spatial_index.hpp"
#include "topo/spec.hpp"

namespace mgap::fault {
namespace {

TEST(FaultSpec, ParsesCrash) {
  const FaultEvent ev = parse_fault_event("crash node=3 at=30s reboot_after=5s");
  EXPECT_EQ(ev.kind, FaultKind::kCrash);
  EXPECT_EQ(ev.node, 3u);
  EXPECT_EQ(ev.at, sim::TimePoint::origin() + sim::Duration::sec(30));
  EXPECT_EQ(ev.duration, sim::Duration::sec(5));
}

TEST(FaultSpec, CrashWithoutRebootIsPermanent) {
  const FaultEvent ev = parse_fault_event("crash node=7 at=1m");
  EXPECT_EQ(ev.duration, sim::Duration{});
}

TEST(FaultSpec, ParsesLinkFaults) {
  const FaultEvent b = parse_fault_event("blackout link=2-5 at=60s for=3s");
  EXPECT_EQ(b.kind, FaultKind::kBlackout);
  EXPECT_EQ(b.node, 2u);
  EXPECT_EQ(b.peer, 5u);
  EXPECT_EQ(b.duration, sim::Duration::sec(3));
  EXPECT_DOUBLE_EQ(b.per, 1.0);

  const FaultEvent a = parse_fault_event("attenuate link=1-2 at=10s for=5s per=0.4");
  EXPECT_EQ(a.kind, FaultKind::kAttenuate);
  EXPECT_DOUBLE_EQ(a.per, 0.4);
}

TEST(FaultSpec, ParsesChannelClockAndPressureFaults) {
  const FaultEvent i = parse_fault_event("interfere channels=10-14 at=90s for=5s per=0.95");
  EXPECT_EQ(i.kind, FaultKind::kInterfere);
  EXPECT_EQ(i.chan_lo, 10);
  EXPECT_EQ(i.chan_hi, 14);
  EXPECT_DOUBLE_EQ(i.per, 0.95);

  const FaultEvent d = parse_fault_event("clock_drift node=4 at=20s ppm=120 for=30s");
  EXPECT_EQ(d.kind, FaultKind::kClockDrift);
  EXPECT_DOUBLE_EQ(d.ppm, 120.0);

  const FaultEvent s = parse_fault_event("clock_step node=4 at=20s step=40ms");
  EXPECT_EQ(s.kind, FaultKind::kClockStep);
  EXPECT_EQ(s.step, sim::Duration::ms(40));

  const FaultEvent p = parse_fault_event("pressure node=2 at=15s for=10s bytes=4096");
  EXPECT_EQ(p.kind, FaultKind::kPressure);
  EXPECT_EQ(p.bytes, 4096u);
}

TEST(FaultSpec, StrRoundTrips) {
  const std::vector<std::string> specs = {
      "crash node=3 at=30s reboot_after=5s",
      "crash node=7 at=60s",
      "blackout link=2-5 at=60s for=3s",
      "attenuate link=1-2 at=10s for=5s per=0.4",
      "interfere channels=10-14 at=90s for=5s per=0.95",
      "clock_drift node=4 at=20s ppm=120 for=30s",
      "clock_step node=4 at=20s step=40ms",
      "pressure node=2 at=15s for=10s bytes=4096",
      "attenuate link=2-5 at=1s for=2s per=0.123456789",
      "interfere channels=0-36 at=1s for=1s per=0.9 node=3 radius=12.3456789",
      "clock_drift node=4 at=20s ppm=-123.456789012",
  };
  // Each is already canonical, so str() gives it back to the last digit.
  for (const std::string& text : specs) {
    EXPECT_EQ(parse_fault_event(text).str(), text);
  }
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  EXPECT_THROW((void)parse_fault_event(""), std::runtime_error);
  EXPECT_THROW((void)parse_fault_event("meteor node=1 at=3s"), std::runtime_error);
  EXPECT_THROW((void)parse_fault_event("crash at=30s"), std::runtime_error);       // no node
  EXPECT_THROW((void)parse_fault_event("crash node=3"), std::runtime_error);       // no at
  EXPECT_THROW((void)parse_fault_event("crash node=x at=30s"), std::runtime_error);
  EXPECT_THROW((void)parse_fault_event("crash node=3 at=banana"), std::runtime_error);
  EXPECT_THROW((void)parse_fault_event("crash node=3 at=30s color=red"), std::runtime_error);
  EXPECT_THROW((void)parse_fault_event("blackout link=25 at=1s for=1s"), std::runtime_error);
  EXPECT_THROW((void)parse_fault_event("blackout link=2-5 at=1s"), std::runtime_error);
  EXPECT_THROW((void)parse_fault_event("attenuate link=1-2 at=1s for=1s per=1.5"),
               std::runtime_error);
  EXPECT_THROW((void)parse_fault_event("interfere channels=14-10 at=1s for=1s"),
               std::runtime_error);
  EXPECT_THROW((void)parse_fault_event("interfere channels=0-40 at=1s for=1s"),
               std::runtime_error);
  EXPECT_THROW((void)parse_fault_event("pressure node=2 at=1s for=1s"), std::runtime_error);
}

TEST(FaultSpec, KindListRoundTrips) {
  const auto kinds = parse_kind_list("crash+blackout+pressure");
  ASSERT_EQ(kinds.size(), 3u);
  EXPECT_EQ(kinds[0], FaultKind::kCrash);
  EXPECT_EQ(kinds[2], FaultKind::kPressure);
  EXPECT_EQ(render_kind_list(kinds), "crash+blackout+pressure");
  EXPECT_THROW((void)parse_kind_list("crash+meteor"), std::runtime_error);
}

class ChaosTest : public ::testing::Test {
 protected:
  static std::vector<std::string> sample_strings(double rate, std::uint64_t seed,
                                                 std::vector<FaultKind> kinds = {}) {
    ChaosConfig cfg;
    cfg.rate_per_min = rate;
    cfg.kinds = std::move(kinds);
    sim::Simulator sim{seed};
    sim::Rng rng = sim.make_rng();
    const std::vector<NodeId> nodes{1, 2, 3, 4, 5};
    const std::vector<std::pair<NodeId, NodeId>> edges{{2, 1}, {3, 1}, {4, 1}, {5, 1}};
    std::vector<std::string> out;
    for (const FaultEvent& ev :
         sample_chaos(cfg, nodes, edges, sim::Duration::minutes(10), rng)) {
      out.push_back(ev.str());
    }
    return out;
  }
};

TEST_F(ChaosTest, SameSeedSameSequence) {
  EXPECT_EQ(sample_strings(2.0, 42), sample_strings(2.0, 42));
  EXPECT_NE(sample_strings(2.0, 42), sample_strings(2.0, 43));
}

TEST_F(ChaosTest, RateScalesEventCount) {
  const auto low = sample_strings(0.5, 7);
  const auto high = sample_strings(4.0, 7);
  EXPECT_GT(low.size(), 0u);
  EXPECT_GT(high.size(), 2 * low.size());
}

TEST_F(ChaosTest, KindFilterRespected) {
  const auto only_crashes = sample_strings(3.0, 11, {FaultKind::kCrash});
  ASSERT_GT(only_crashes.size(), 0u);
  for (const std::string& s : only_crashes) {
    EXPECT_EQ(s.rfind("crash ", 0), 0u) << s;
  }
}

TEST_F(ChaosTest, EventsStayInsideTheHorizonMargins) {
  ChaosConfig cfg;
  cfg.rate_per_min = 6.0;
  sim::Simulator sim{3};
  sim::Rng rng = sim.make_rng();
  const sim::Duration horizon = sim::Duration::minutes(5);
  const auto events = sample_chaos(cfg, {1, 2, 3}, {{2, 1}, {3, 1}}, horizon, rng);
  ASSERT_GT(events.size(), 0u);
  for (const FaultEvent& ev : events) {
    EXPECT_GE(ev.at, sim::TimePoint::origin() + horizon / 10);
    EXPECT_LE(ev.at, sim::TimePoint::origin() + (horizon / 10) * 9);
  }
}

// --- config-file integration -------------------------------------------------

TEST(FaultConfig, KeysRoundTripThroughConfigFile) {
  const testbed::ExperimentConfig cfg = testbed::parse_experiment_config(R"(
topology = star5
duration = 60s
fault.0 = crash node=2 at=20s reboot_after=5s
fault.1 = blackout link=1-3 at=30s for=4s
chaos_rate = 1.5
chaos_kinds = crash+pressure
reconnect_backoff_base = 20ms
reconnect_backoff_max = 1s
reconnect_backoff_jitter = 50ms
)");
  ASSERT_EQ(cfg.faults.size(), 2u);
  EXPECT_EQ(cfg.faults.at("fault.0").kind, fault::FaultKind::kCrash);
  EXPECT_EQ(cfg.faults.at("fault.1").kind, fault::FaultKind::kBlackout);
  EXPECT_DOUBLE_EQ(cfg.chaos.rate_per_min, 1.5);
  ASSERT_EQ(cfg.chaos.kinds.size(), 2u);
  EXPECT_EQ(cfg.reconnect_backoff_base, sim::Duration::ms(20));
  EXPECT_EQ(cfg.reconnect_backoff_max, sim::Duration::sec(1));

  // render -> parse preserves the fault plan.
  const testbed::ExperimentConfig again =
      testbed::parse_experiment_config(testbed::render_experiment_config(cfg));
  ASSERT_EQ(again.faults.size(), 2u);
  EXPECT_EQ(again.faults.at("fault.0").str(), cfg.faults.at("fault.0").str());
  EXPECT_DOUBLE_EQ(again.chaos.rate_per_min, 1.5);
}

TEST(FaultConfig, NoneClearsASlotAndErrorsNameTheKey) {
  testbed::ExperimentConfig cfg;
  testbed::apply_experiment_kv(cfg, "fault.0", "crash node=2 at=10s");
  EXPECT_EQ(cfg.faults.size(), 1u);
  testbed::apply_experiment_kv(cfg, "fault.0", "none");
  EXPECT_TRUE(cfg.faults.empty());
  try {
    testbed::apply_experiment_kv(cfg, "fault.3", "crash node=oops at=10s");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("fault.3"), std::string::npos);
  }
}

// --- injector integration against a live Experiment --------------------------

testbed::ExperimentConfig star_config(std::uint64_t seed = 1) {
  testbed::ExperimentConfig cfg;
  cfg.topology = testbed::Topology::star(5);
  cfg.duration = sim::Duration::sec(60);
  cfg.producer_interval = sim::Duration::ms(500);
  cfg.seed = seed;
  return cfg;
}

TEST(FaultInjection, CrashAndRebootRecovers) {
  testbed::ExperimentConfig cfg = star_config();
  cfg.faults["fault.0"] = parse_fault_event("crash node=2 at=20s reboot_after=5s");
  testbed::Experiment exp{cfg};
  exp.run();
  const testbed::ExperimentSummary s = exp.summary();

  EXPECT_EQ(s.faults_injected, 1u);
  EXPECT_GE(s.losses_injected, 1u);  // node 2's link dies by supervision timeout
  EXPECT_GE(s.link_ups, 5u);         // 4 initial ups + the reconnect
  EXPECT_GT(s.reconnect_p50, sim::Duration{});
  EXPECT_FALSE(exp.statconn(2)->suspended());
  EXPECT_TRUE(exp.statconn(2)->all_links_up());
  // Traffic resumed after the reboot.
  const testbed::PdrBucket after = exp.metrics().count_between(
      sim::TimePoint::origin() + sim::Duration::sec(30),
      sim::TimePoint::origin() + sim::Duration::sec(60));
  EXPECT_GT(after.acked, 0u);
}

TEST(FaultInjection, PermanentCrashStaysDown) {
  testbed::ExperimentConfig cfg = star_config();
  cfg.faults["fault.0"] = parse_fault_event("crash node=2 at=20s");
  testbed::Experiment exp{cfg};
  exp.run();
  const testbed::ExperimentSummary s = exp.summary();

  EXPECT_TRUE(exp.statconn(2)->suspended());
  EXPECT_FALSE(exp.statconn(2)->all_links_up());
  EXPECT_GE(s.losses_injected, 1u);
  // Node 2 stopped producing at the crash; the others kept going.
  const auto* dead = exp.metrics().timeline_of(2);
  ASSERT_NE(dead, nullptr);
  std::uint64_t sent_after_crash = 0;
  for (std::size_t i = 3; i < dead->size(); ++i) {  // buckets past 30 s
    sent_after_crash += (*dead)[i].sent;
  }
  EXPECT_EQ(sent_after_crash, 0u);
  const testbed::PdrBucket after = exp.metrics().count_between(
      sim::TimePoint::origin() + sim::Duration::sec(30),
      sim::TimePoint::origin() + sim::Duration::sec(60));
  EXPECT_GT(after.acked, 0u);
}

TEST(FaultInjection, BlackoutCausesOutageAndReconnect) {
  testbed::ExperimentConfig cfg = star_config();
  cfg.faults["fault.0"] = parse_fault_event("blackout link=1-2 at=20s for=5s");
  testbed::Experiment exp{cfg};
  exp.run();
  const testbed::ExperimentSummary s = exp.summary();

  EXPECT_EQ(s.faults_injected, 1u);
  EXPECT_GE(s.losses_injected, 1u);
  ASSERT_GE(exp.metrics().outages().size(), 1u);
  // The link cannot come back before the blackout window ends: the first
  // outage spans from the supervision timeout (~2 s in) to past the window.
  const testbed::Metrics::LinkOutage& outage = exp.metrics().outages().front();
  EXPECT_GE(outage.down_at, sim::TimePoint::origin() + sim::Duration::sec(20));
  EXPECT_GE(outage.outage, sim::Duration::sec(1));
  EXPECT_TRUE(exp.statconn(2)->all_links_up());
  EXPECT_GT(s.repair_to_delivery_p50, sim::Duration{});
}

TEST(FaultInjection, PressureExhaustsPktbuf) {
  testbed::ExperimentConfig cfg = star_config();
  cfg.producer_interval = sim::Duration::ms(200);
  cfg.faults["fault.0"] = parse_fault_event("pressure node=2 at=20s for=10s bytes=6100");
  testbed::Experiment exp{cfg};
  exp.run();

  EXPECT_GT(exp.stack(2).stats().drop_pktbuf, 0u);
  // Capacity is restored when the window ends: node 2 delivers again later.
  const testbed::PdrBucket after = exp.metrics().count_between(
      sim::TimePoint::origin() + sim::Duration::sec(40),
      sim::TimePoint::origin() + sim::Duration::sec(60));
  EXPECT_GT(after.acked, 0u);
}

TEST(FaultInjection, InterferenceDegradesLinkLayerPdr) {
  testbed::Experiment clean{star_config(5)};
  clean.run();
  testbed::ExperimentConfig cfg = star_config(5);
  cfg.faults["fault.0"] =
      parse_fault_event("interfere channels=0-36 at=10s for=40s per=0.9");
  testbed::Experiment noisy{cfg};
  noisy.run();

  EXPECT_LT(noisy.summary().ll_pdr, clean.summary().ll_pdr - 0.05);
}

TEST(FaultInjection, RepeatedCrashRebootKeepsCountersConsistent) {
  testbed::ExperimentConfig cfg = star_config();
  cfg.duration = sim::Duration::sec(90);
  cfg.faults["fault.0"] = parse_fault_event("crash node=2 at=15s reboot_after=3s");
  cfg.faults["fault.1"] = parse_fault_event("crash node=2 at=40s reboot_after=3s");
  cfg.faults["fault.2"] = parse_fault_event("crash node=2 at=65s reboot_after=3s");
  testbed::Experiment exp{cfg};
  exp.run();
  const testbed::ExperimentSummary s = exp.summary();

  EXPECT_EQ(s.faults_injected, 3u);
  EXPECT_GE(exp.statconn(2)->reconnects(), 3u);
  EXPECT_GE(s.losses_injected, 3u);
  // Every down eventually paired with an up: the star is whole again.
  EXPECT_TRUE(exp.statconn(2)->all_links_up());
  EXPECT_EQ(s.link_ups, s.link_downs + 4u);  // +4 initial establishments
  EXPECT_EQ(exp.metrics().reconnect_times().count(),
            static_cast<std::uint64_t>(exp.metrics().outages().size()));
}

TEST(FaultInjection, ChaosModeIsSeedReproducible) {
  testbed::ExperimentConfig cfg = star_config(9);
  cfg.chaos.rate_per_min = 2.0;
  testbed::Experiment a{cfg};
  a.run();
  testbed::Experiment b{cfg};
  b.run();

  EXPECT_GT(a.summary().faults_injected, 0u);
  EXPECT_EQ(a.summary().faults_injected, b.summary().faults_injected);
  EXPECT_EQ(a.summary().sent, b.summary().sent);
  EXPECT_EQ(a.summary().acked, b.summary().acked);
  EXPECT_EQ(a.summary().conn_losses, b.summary().conn_losses);
  EXPECT_EQ(a.summary().losses_injected, b.summary().losses_injected);

  testbed::ExperimentConfig other = cfg;
  other.seed = 10;
  testbed::Experiment c{other};
  c.run();
  EXPECT_NE(a.summary().sent, c.summary().sent);
}

// --- campaign integration ----------------------------------------------------

TEST(FaultCampaign, ChaosIntensitySweepIsThreadCountInvariant) {
  // The ISSUE's acceptance shape: crash-chaos intensity x 3 seeds, byte-equal
  // JSON/CSV for 1 vs N threads, with recovery metrics per cell.
  const auto spec_text = R"(
campaign = fault_sweep_fixture
topology = star5
duration = 30s
producer_interval = 500ms
chaos_kinds = crash
chaos_rate = 0.5, 1, 2
seeds = 1..3
)";
  campaign::RunnerOptions serial;
  serial.threads = 1;
  serial.progress = false;
  const campaign::CampaignResult r1 =
      campaign::CampaignRunner{serial}.run(campaign::parse_campaign_spec(spec_text));

  campaign::RunnerOptions parallel;
  parallel.threads = std::max(2u, std::thread::hardware_concurrency());
  parallel.progress = false;
  const campaign::CampaignResult rn =
      campaign::CampaignRunner{parallel}.run(campaign::parse_campaign_spec(spec_text));

  const std::string json = campaign::to_json(r1);
  EXPECT_EQ(json, campaign::to_json(rn));
  EXPECT_EQ(campaign::to_csv(r1), campaign::to_csv(rn));
  EXPECT_NE(json.find("\"reconnect_p50_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"pdr_post_fault\""), std::string::npos);
  EXPECT_NE(json.find("\"losses_injected\""), std::string::npos);
}

TEST(FaultCampaign, FaultSlotSweepsAsAGridAxis) {
  const auto spec = campaign::parse_campaign_spec(R"(
campaign = fault_axis_fixture
topology = star5
duration = 30s
fault.0 = none, crash node=2 at=10s reboot_after=3s
seeds = 1..2
)");
  ASSERT_EQ(spec.axes.size(), 1u);
  const auto grid = campaign::expand_grid(spec);
  ASSERT_EQ(grid.size(), 2u);
  EXPECT_TRUE(grid[0].config.faults.empty());
  ASSERT_EQ(grid[1].config.faults.size(), 1u);

  campaign::RunnerOptions options;
  options.progress = false;
  const campaign::CampaignResult result = campaign::CampaignRunner{options}.run(spec);
  ASSERT_EQ(result.cells.size(), 4u);
  EXPECT_EQ(result.cells[0].summary.faults_injected, 0u);
  EXPECT_EQ(result.cells[2].summary.faults_injected, 1u);
  EXPECT_GE(result.cells[2].summary.losses_injected, 1u);
}

// --- radius-scoped faults --------------------------------------------------

TEST(FaultSpec, ParsesRadiusScopes) {
  const FaultEvent i =
      parse_fault_event("interfere channels=10-14 at=1s for=5s per=0.9 node=3 radius=25");
  EXPECT_EQ(i.node, 3u);
  EXPECT_DOUBLE_EQ(i.radius, 25.0);
  const FaultEvent i2 = parse_fault_event(i.str());
  EXPECT_EQ(i2.node, 3u);
  EXPECT_DOUBLE_EQ(i2.radius, 25.0);

  const FaultEvent p =
      parse_fault_event("pressure node=2 at=1s for=2s bytes=4096 radius=15");
  EXPECT_DOUBLE_EQ(p.radius, 15.0);
  EXPECT_DOUBLE_EQ(parse_fault_event(p.str()).radius, 15.0);

  // Legacy forms keep radius 0 (global / single-node scope).
  EXPECT_DOUBLE_EQ(
      parse_fault_event("interfere channels=0-36 at=1s for=1s").radius, 0.0);
  EXPECT_DOUBLE_EQ(
      parse_fault_event("pressure node=2 at=1s for=1s bytes=64").radius, 0.0);
}

TEST(FaultSpec, RejectsMalformedRadiusScopes) {
  // A radius needs a center; a center is meaningless without a radius.
  EXPECT_THROW((void)parse_fault_event("interfere channels=0-36 at=1s for=1s radius=5"),
               std::runtime_error);
  EXPECT_THROW((void)parse_fault_event("interfere channels=0-36 at=1s for=1s node=3"),
               std::runtime_error);
  EXPECT_THROW(
      (void)parse_fault_event("interfere channels=0-36 at=1s for=1s node=3 radius=0"),
      std::runtime_error);
  EXPECT_THROW(
      (void)parse_fault_event("pressure node=2 at=1s for=1s bytes=64 radius=-1"),
      std::runtime_error);
}

testbed::ExperimentConfig geo_config(std::uint64_t seed = 7) {
  testbed::ExperimentConfig cfg;
  cfg.topo.generator = topo::Generator::kRgg;
  cfg.topo.nodes = 30;
  cfg.topo.density = 8.0;
  cfg.topo.range = 10.0;
  cfg.duration = sim::Duration::sec(40);
  cfg.producer_interval = sim::Duration::sec(1);
  cfg.seed = seed;
  return cfg;
}

TEST(FaultInjection, WorldSpanningRadiusEqualsLegacyGlobalInterference) {
  // A ball that covers the whole deployment must reproduce the radius-0
  // channel fault exactly: every receiver is in both scopes, so each hears
  // the same PER and the delivery rolls consume the same RNG draws.
  testbed::ExperimentConfig legacy = geo_config();
  legacy.faults["fault.0"] =
      parse_fault_event("interfere channels=0-36 at=10s for=15s per=0.8");
  testbed::Experiment a{legacy};
  a.run();

  testbed::ExperimentConfig scoped = geo_config();
  scoped.faults["fault.0"] = parse_fault_event(
      "interfere channels=0-36 at=10s for=15s per=0.8 node=1 radius=100000");
  testbed::Experiment b{scoped};
  b.run();

  const testbed::ExperimentSummary sa = a.summary();
  const testbed::ExperimentSummary sb = b.summary();
  EXPECT_EQ(sa.sent, sb.sent);
  EXPECT_EQ(sa.acked, sb.acked);
  EXPECT_EQ(sa.ll_pdr, sb.ll_pdr);
  EXPECT_EQ(sa.losses_injected, sb.losses_injected);
  EXPECT_EQ(sa.counters, sb.counters);
}

TEST(FaultInjection, LocalInterferenceHurtsLessThanGlobal) {
  testbed::Experiment clean{geo_config()};
  clean.run();

  testbed::ExperimentConfig local_cfg = geo_config();
  // A tight ball around one mid-tree node: only receivers inside it see the
  // extra PER; the rest of the world keeps the clean channel.
  local_cfg.faults["fault.0"] = parse_fault_event(
      "interfere channels=0-36 at=10s for=20s per=0.9 node=15 radius=8");
  testbed::Experiment local{local_cfg};
  local.run();

  testbed::ExperimentConfig global_cfg = geo_config();
  global_cfg.faults["fault.0"] =
      parse_fault_event("interfere channels=0-36 at=10s for=20s per=0.9");
  testbed::Experiment global{global_cfg};
  global.run();

  EXPECT_LT(global.summary().ll_pdr, clean.summary().ll_pdr - 0.02);
  EXPECT_GT(local.summary().ll_pdr, global.summary().ll_pdr);
}

TEST(FaultInjection, TinyRadiusPressureEqualsLegacySingleNode) {
  testbed::ExperimentConfig legacy = geo_config();
  legacy.producer_interval = sim::Duration::ms(200);
  legacy.faults["fault.0"] =
      parse_fault_event("pressure node=5 at=10s for=10s bytes=6100");
  testbed::Experiment a{legacy};
  a.run();

  // radius=0.01: the ball degenerates to the named node, so the scope — and
  // what is seized and freed — equals the radius-0 fault's.
  testbed::ExperimentConfig scoped = geo_config();
  scoped.producer_interval = sim::Duration::ms(200);
  scoped.faults["fault.0"] =
      parse_fault_event("pressure node=5 at=10s for=10s bytes=6100 radius=0.01");
  testbed::Experiment b{scoped};
  b.run();

  const testbed::ExperimentSummary sa = a.summary();
  const testbed::ExperimentSummary sb = b.summary();
  EXPECT_EQ(sa.sent, sb.sent);
  EXPECT_EQ(sa.acked, sb.acked);
  EXPECT_EQ(sa.pktbuf_drops, sb.pktbuf_drops);
  EXPECT_EQ(sa.counters, sb.counters);
  EXPECT_GT(a.stack(5).stats().drop_pktbuf, 0u);
}

TEST(FaultInjection, RadiusPressureSqueezesTheWholeBall) {
  testbed::ExperimentConfig cfg = geo_config();
  cfg.producer_interval = sim::Duration::ms(200);
  cfg.faults["fault.0"] =
      parse_fault_event("pressure node=5 at=10s for=10s bytes=6100 radius=10");
  testbed::Experiment exp{cfg};

  const auto* geo = exp.generated_world();
  ASSERT_NE(geo, nullptr);
  const std::vector<NodeId> ball = geo->index->ball(5, 10.0);
  ASSERT_GT(ball.size(), 1u) << "fixture needs a non-degenerate ball";
  exp.run();

  // Every node in the ball lost its buffer for the window.
  std::uint64_t ball_drops = 0;
  for (const NodeId id : ball) ball_drops += exp.stack(id).stats().drop_pktbuf;
  EXPECT_GT(ball_drops, 0u);
  // Capacity restored: traffic flows again after the window.
  const testbed::PdrBucket after = exp.metrics().count_between(
      sim::TimePoint::origin() + sim::Duration::sec(25),
      sim::TimePoint::origin() + sim::Duration::sec(40));
  EXPECT_GT(after.acked, 0u);
}


// --- overlapping windows compose: nothing is saved and written back ---------

sim::TimePoint at_s(std::int64_t s) { return sim::TimePoint::origin() + sim::Duration::sec(s); }

/// Delivery and connection losses from 40 s to the end of the run.
struct Tail {
  std::uint64_t sent{0};
  std::uint64_t acked{0};
  std::uint64_t losses{0};
};

Tail run_tail(const testbed::ExperimentConfig& cfg) {
  testbed::Experiment exp{cfg};
  exp.run();
  const testbed::PdrBucket b = exp.metrics().count_between(at_s(40), at_s(120));
  Tail t{b.sent, b.acked, 0};
  for (const auto& [at, node] : exp.metrics().conn_losses()) {
    if (at >= at_s(40)) ++t.losses;
  }
  return t;
}

TEST(FaultInjection, OverlappingInterferenceWindowsLeaveNoTrace) {
  testbed::ExperimentConfig clean_cfg;
  clean_cfg.topology = testbed::Topology::tree15();
  clean_cfg.duration = sim::Duration::sec(120);
  clean_cfg.seed = 1;
  // The first window ends first, while the second is still open.
  testbed::ExperimentConfig cfg = clean_cfg;
  cfg.faults["fault.0"] = parse_fault_event("interfere channels=0-36 at=10s for=10s per=0.9");
  cfg.faults["fault.1"] = parse_fault_event("interfere channels=0-36 at=15s for=10s per=0.5");

  const Tail clean = run_tail(clean_cfg);
  const Tail faulted = run_tail(cfg);
  ASSERT_GT(clean.sent, 1000u);
  EXPECT_EQ(faulted.sent, clean.sent);
  EXPECT_EQ(faulted.acked, clean.acked);
  EXPECT_EQ(faulted.losses, clean.losses);
}

TEST(FaultInjection, RadiusWindowInsideAGlobalOneLeavesNoTrace) {
  testbed::ExperimentConfig clean_cfg = geo_config();
  clean_cfg.duration = sim::Duration::sec(120);
  testbed::ExperimentConfig cfg = clean_cfg;
  cfg.faults["fault.0"] = parse_fault_event("interfere channels=0-36 at=10s for=10s per=0.9");
  cfg.faults["fault.1"] = parse_fault_event(
      "interfere channels=0-36 at=12s for=3s per=0.9 node=15 radius=8");

  const Tail clean = run_tail(clean_cfg);
  const Tail faulted = run_tail(cfg);
  ASSERT_GT(clean.sent, 2000u);
  // Both windows closed by 20 s: the tail is as healthy as a fault-free one.
  EXPECT_GE(faulted.acked + clean.sent / 100, clean.acked);
  EXPECT_LE(faulted.losses, clean.losses + 3);
}

TEST(FaultInjection, OverlappingDriftWindowsEndAtTheBuiltDrift) {
  testbed::ExperimentConfig cfg = star_config();
  cfg.faults["fault.0"] = parse_fault_event("clock_drift node=2 at=10s ppm=100 for=10s");
  cfg.faults["fault.1"] = parse_fault_event("clock_drift node=2 at=15s ppm=-80 for=20s");
  testbed::Experiment exp{cfg};
  const double built = exp.controller(2)->clock().drift_ppm();

  exp.run_until(at_s(17));
  EXPECT_EQ(exp.controller(2)->clock().drift_ppm(), -80.0);
  exp.run_until(at_s(25));  // the first window has ended, the second is open
  EXPECT_EQ(exp.controller(2)->clock().drift_ppm(), -80.0);
  exp.run();
  EXPECT_EQ(exp.controller(2)->clock().drift_ppm(), built);
}

/// The crashes and reboots the injector performs on `plan` over 60 s, as
/// "crash2@5s reboot2@15s ".
std::string crash_log(const std::vector<std::string>& plan) {
  sim::Simulator sim{1};
  std::string log;
  const auto note = [&](const char* what, NodeId node) {
    log += what + std::to_string(node) + "@" + sim.now().since_origin().str() + " ";
  };
  InjectorHooks hooks;
  hooks.on_crash = [&](NodeId node) { note("crash", node); };
  hooks.on_reboot = [&](NodeId node) { note("reboot", node); };
  FaultInjector injector{sim, nullptr, std::move(hooks)};
  std::vector<FaultEvent> events;
  for (const std::string& text : plan) events.push_back(parse_fault_event(text));
  injector.arm(events);
  sim.run_until(at_s(60));
  return log;
}

TEST(FaultInjection, PermanentCrashOutlastsAWindowedOne) {
  EXPECT_EQ(crash_log({"crash node=2 at=10s", "crash node=2 at=5s reboot_after=10s"}),
            "crash2@5s ");

  testbed::ExperimentConfig cfg = star_config();
  cfg.faults["fault.0"] = parse_fault_event("crash node=2 at=20s");
  cfg.faults["fault.1"] = parse_fault_event("crash node=2 at=15s reboot_after=10s");
  testbed::Experiment exp{cfg};
  exp.run();
  EXPECT_TRUE(exp.statconn(2)->suspended());
  EXPECT_FALSE(exp.controller(2)->radio_on());
}

TEST(FaultInjection, OverlappingCrashWindowsRebootWhenTheLastCloses) {
  EXPECT_EQ(crash_log({"crash node=2 at=10s reboot_after=10s",
                       "crash node=2 at=15s reboot_after=10s"}),
            "crash2@10s reboot2@25s ");
  // Back to back: the node stays down across the shared edge.
  EXPECT_EQ(crash_log({"crash node=2 at=10s reboot_after=10s",
                       "crash node=2 at=20s reboot_after=10s"}),
            "crash2@10s reboot2@30s ");
  // Windows on other nodes do not hold this one down.
  EXPECT_EQ(crash_log({"crash node=2 at=10s reboot_after=10s",
                       "crash node=3 at=15s reboot_after=10s"}),
            "crash2@10s crash3@15s reboot2@20s reboot3@25s ");
}

/// One connection with anchors at 10 ms + k * 100 ms and an interfere window
/// whose begin falls on the anchor at 1010 ms. Armed before the connection
/// opens, the window's begin event was scheduled first and fires first at
/// 1010 ms; armed at 950 ms, the connection event at 1010 ms (scheduled at
/// 910 ms) fires first. No window when `arm` is kNoFault.
enum class Arm { kBeforeConnection, kAfterConnection, kNoFault };

std::string edge_instant_run(Arm arm) {
  sim::Simulator sim{11};
  ble::BleWorld world{sim, phy::ChannelModel{0.01}};
  FaultInjector injector{sim, &world, {}};
  const std::vector<FaultEvent> plan = {
      parse_fault_event("interfere channels=0-36 at=1010ms for=1s per=0.9")};
  if (arm == Arm::kBeforeConnection) injector.arm(plan);
  ble::Controller& a = world.add_node(1, 0.0);
  ble::Controller& b = world.add_node(2, 3.0);
  ble::ConnParams p;
  p.interval = sim::Duration::ms(100);
  p.supervision_timeout = sim::Duration::sec(4);
  const ble::LinkStats& s =
      world.open_connection(a, b, p, sim::TimePoint::origin() + sim::Duration::ms(10))
          .link_stats();
  if (arm == Arm::kAfterConnection) {
    sim.schedule_at(sim::TimePoint::origin() + sim::Duration::ms(950),
                    [&injector, &plan] { injector.arm(plan); });
  }
  sim.run_until(at_s(3));
  return "ok=" + std::to_string(s.events_ok) + " missed=" + std::to_string(s.events_missed) +
         " aborted=" + std::to_string(s.events_aborted) +
         " losses=" + std::to_string(s.conn_losses);
}

TEST(FaultInjection, InterferenceEdgeOnAnAnchorIsOrderIndependent) {
  const std::string before = edge_instant_run(Arm::kBeforeConnection);
  EXPECT_EQ(before, edge_instant_run(Arm::kAfterConnection));
  EXPECT_NE(before, edge_instant_run(Arm::kNoFault));
}

TEST(FaultInjector, AttributionFollowsTheResolvedScope) {
  sim::Simulator sim{1};
  InjectorHooks hooks;
  hooks.nodes_within = [](NodeId center, double) {
    return std::vector<NodeId>{7, center, 3};
  };
  FaultInjector injector{sim, nullptr, std::move(hooks)};
  injector.arm({parse_fault_event("interfere channels=0-36 at=10s for=5s node=5 radius=8"),
                parse_fault_event("pressure node=20 at=30s for=5s bytes=64 radius=8"),
                parse_fault_event("interfere channels=0-36 at=50s for=5s")});
  const sim::Duration grace = sim::Duration::sec(1);

  // Radius interference charges only the nodes in its ball.
  EXPECT_TRUE(injector.attributable(3, at_s(12), grace));
  EXPECT_TRUE(injector.attributable(5, at_s(12), grace));
  EXPECT_FALSE(injector.attributable(4, at_s(12), grace));
  // Radius pressure charges every node in its ball, not just the center.
  EXPECT_TRUE(injector.attributable(7, at_s(32), grace));
  EXPECT_TRUE(injector.attributable(20, at_s(32), grace));
  EXPECT_FALSE(injector.attributable(5, at_s(32), grace));
  // Radius-0 interference charges every node.
  EXPECT_TRUE(injector.attributable(4, at_s(52), grace));
  EXPECT_FALSE(injector.attributable(4, at_s(45), grace));
}

}  // namespace
}  // namespace mgap::fault
