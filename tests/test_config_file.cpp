// Unit tests: the static experiment-description format (Appendix A.3).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "campaign/spec.hpp"
#include "testbed/config_file.hpp"

namespace mgap::testbed {
namespace {

TEST(ParseDuration, Units) {
  EXPECT_EQ(sim::parse_duration("150us"), sim::Duration::us(150));
  EXPECT_EQ(sim::parse_duration("75ms"), sim::Duration::ms(75));
  EXPECT_EQ(sim::parse_duration("1.25ms"), sim::Duration::us(1250));
  EXPECT_EQ(sim::parse_duration("2s"), sim::Duration::sec(2));
  EXPECT_EQ(sim::parse_duration("30m"), sim::Duration::minutes(30));
  EXPECT_EQ(sim::parse_duration("24h"), sim::Duration::hours(24));
  EXPECT_EQ(sim::parse_duration("1500ns"), sim::Duration::ns(1500));
  EXPECT_EQ(sim::parse_duration(" 10ms "), sim::Duration::ms(10));
}

TEST(ParseDuration, RejectsGarbage) {
  EXPECT_FALSE(sim::parse_duration("").has_value());
  EXPECT_FALSE(sim::parse_duration("ms").has_value());
  EXPECT_FALSE(sim::parse_duration("10").has_value());
  EXPECT_FALSE(sim::parse_duration("10xs").has_value());
  EXPECT_FALSE(sim::parse_duration("ten ms").has_value());
}

TEST(ConfigFile, ParsesFullDescription) {
  const auto cfg = parse_experiment_config(R"(
# a comment
radio = ble
topology = line15
duration = 2h
producer_interval = 5s       # trailing comment
producer_jitter = 2.5s
conn_interval = 100ms
supervision_timeout = 4s
payload_len = 39
seed = 7
base_per = 0.02
drift_ppm_range = 3
jam_channel_22 = false
exclude_channel_22 = false
adaptive_channel_map = true
confirmable_coap = true
compression = iphc
metrics_bucket = 1m
)");
  EXPECT_EQ(cfg.radio, ExperimentConfig::Radio::kBle);
  EXPECT_EQ(cfg.topology.name, "line");
  EXPECT_EQ(cfg.duration, sim::Duration::hours(2));
  EXPECT_EQ(cfg.producer_interval, sim::Duration::sec(5));
  EXPECT_EQ(cfg.producer_jitter, sim::Duration::ms(2500));
  EXPECT_FALSE(cfg.policy.is_randomized());
  EXPECT_EQ(cfg.policy.target(), sim::Duration::ms(100));
  EXPECT_EQ(cfg.supervision_timeout, sim::Duration::sec(4));
  EXPECT_EQ(cfg.seed, 7u);
  EXPECT_DOUBLE_EQ(cfg.base_per, 0.02);
  EXPECT_DOUBLE_EQ(cfg.drift_ppm_range, 3.0);
  EXPECT_FALSE(cfg.jam_channel_22);
  EXPECT_FALSE(cfg.exclude_channel_22);
  EXPECT_TRUE(cfg.adaptive_channel_map);
  EXPECT_TRUE(cfg.confirmable_coap);
  EXPECT_EQ(cfg.compression, net::CompressionMode::kIphc);
  EXPECT_EQ(cfg.metrics_bucket, sim::Duration::minutes(1));
}

TEST(ConfigFile, RandomizedWindowSyntax) {
  const auto a = parse_experiment_config("conn_interval = 65ms:85ms\n");
  ASSERT_TRUE(a.policy.is_randomized());
  EXPECT_EQ(a.policy.lo(), sim::Duration::ms(65));
  EXPECT_EQ(a.policy.hi(), sim::Duration::ms(85));
  // Shorthand: the unit only on the upper bound.
  const auto b = parse_experiment_config("conn_interval = 490:510ms\n");
  ASSERT_TRUE(b.policy.is_randomized());
  EXPECT_EQ(b.policy.lo(), sim::Duration::ms(490));
  EXPECT_EQ(b.policy.hi(), sim::Duration::ms(510));
}

TEST(ConfigFile, StarTopology) {
  const auto cfg = parse_experiment_config("topology = star8\n");
  EXPECT_EQ(cfg.topology.name, "star");
  EXPECT_EQ(cfg.topology.nodes.size(), 8u);
}

TEST(ConfigFile, SelfFormingTopology) {
  const auto cfg = parse_experiment_config("topology = self_forming12\n");
  EXPECT_EQ(cfg.topology.name, "self_forming");
  EXPECT_EQ(cfg.topology.nodes.size(), 12u);
  EXPECT_FALSE(cfg.topology.wired());
  EXPECT_TRUE(cfg.topology.parent.empty());
  const std::string rendered = render_experiment_config(cfg);
  EXPECT_NE(rendered.find("topology = self_forming12\n"), std::string::npos);
  EXPECT_EQ(render_experiment_config(parse_experiment_config(rendered)), rendered);

  for (const char* v : {"self_forming", "self_forming0", "self_forming1", "self_formingx"}) {
    EXPECT_THROW((void)parse_experiment_config(std::string{"topology = "} + v + "\n"),
                 std::runtime_error)
        << v;
  }
  // A generated world is wired, in either key order.
  EXPECT_THROW((void)parse_experiment_config("topology = self_forming8\n"
                                             "topo.generator = rgg\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_experiment_config("topo.generator = rgg\n"
                                             "topology = self_forming8\n"),
               std::runtime_error);
  // dynconn forms BLE links only.
  EXPECT_THROW((void)parse_experiment_config("topology = self_forming8\n"
                                             "link.backend = mesh\n"),
               std::runtime_error);
}

TEST(ConfigFile, RejectsUnknownKeyAndBadValues) {
  EXPECT_THROW((void)parse_experiment_config("connn_interval = 75ms\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_experiment_config("radio = zigbee\n"), std::runtime_error);
  EXPECT_THROW((void)parse_experiment_config("duration = soon\n"), std::runtime_error);
  EXPECT_THROW((void)parse_experiment_config("just a line\n"), std::runtime_error);
  EXPECT_THROW((void)parse_experiment_config("jam_channel_22 = maybe\n"),
               std::runtime_error);
}

TEST(ConfigFile, RemovedSimThreadsKeysAreUnknown) {
  // There is no intra-world parallelism: a stale spec naming its old keys
  // must fail loudly rather than quietly run serial.
  const auto error_of = [](auto&& parse) -> std::string {
    try {
      parse();
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "<no error>";
  };
  for (const char* knob : {"threads", "window"}) {
    const std::string key = std::string{"sim."} + knob;
    const std::string want = "config: unknown key '" + key + "'";
    EXPECT_EQ(error_of([&] { (void)parse_experiment_config(key + " = 4\n"); }), want);
    EXPECT_EQ(error_of([&] {
                (void)campaign::expand_grid(
                    campaign::parse_campaign_spec(key + " = 1, 4\n"));
              }),
              want);
  }
}

TEST(ConfigFile, DefaultsMatchExperimentDefaults) {
  const auto cfg = parse_experiment_config("");
  const ExperimentConfig ref;
  EXPECT_EQ(cfg.duration, ref.duration);
  EXPECT_EQ(cfg.producer_interval, ref.producer_interval);
  EXPECT_EQ(cfg.seed, ref.seed);
}

TEST(ConfigFile, RenderParsesBackIdentically) {
  ExperimentConfig cfg;
  cfg.policy = core::IntervalPolicy::randomized(sim::Duration::ms(65),
                                                sim::Duration::ms(85));
  cfg.duration = sim::Duration::hours(24);
  cfg.confirmable_coap = true;
  cfg.seed = 42;
  const auto round = parse_experiment_config(render_experiment_config(cfg));
  EXPECT_EQ(round.duration, cfg.duration);
  EXPECT_TRUE(round.policy.is_randomized());
  EXPECT_EQ(round.policy.lo(), cfg.policy.lo());
  EXPECT_EQ(round.policy.hi(), cfg.policy.hi());
  EXPECT_EQ(round.confirmable_coap, true);
  EXPECT_EQ(round.seed, 42u);
}

TEST(ConfigFile, FlowAndCcKeysParse) {
  const auto cfg = parse_experiment_config(R"(
flow.l2cap_credits = deferred
flow.initial_credits = 12
flow.credit_batch = 4
flow.txq_frames = 16
flow.backoff = true
flow.backoff_base = 10ms
flow.backoff_max = 320ms
flow.backoff_jitter = 5ms
flow.breaker = true
flow.breaker_threshold = 4
flow.breaker_open = 250ms
flow.breaker_probes = 3
flow.congest_on_pct = 80
flow.congest_off_pct = 40
cc.mode = cocoa
cc.nstart = 2
)");
  EXPECT_TRUE(cfg.l2cap_deferred_credits);
  EXPECT_EQ(cfg.l2cap_initial_credits, 12u);
  EXPECT_EQ(cfg.l2cap_credit_batch, 4u);
  EXPECT_EQ(cfg.flow.txq_frames, 16u);
  EXPECT_TRUE(cfg.flow.backoff);
  EXPECT_EQ(cfg.flow.backoff_base, sim::Duration::ms(10));
  EXPECT_EQ(cfg.flow.backoff_max, sim::Duration::ms(320));
  EXPECT_EQ(cfg.flow.backoff_jitter, sim::Duration::ms(5));
  EXPECT_TRUE(cfg.flow.breaker);
  EXPECT_EQ(cfg.flow.breaker_threshold, 4u);
  EXPECT_EQ(cfg.flow.breaker_open, sim::Duration::ms(250));
  EXPECT_EQ(cfg.flow.breaker_probes, 3u);
  EXPECT_EQ(cfg.flow.congest_on_pct, 80u);
  EXPECT_EQ(cfg.flow.congest_off_pct, 40u);
  EXPECT_EQ(cfg.cc.mode, app::CoapCcConfig::Mode::kCocoa);
  EXPECT_EQ(cfg.cc.nstart, 2u);
}

TEST(ConfigFile, FlowPresetsExpandToLayerSets) {
  const auto off = parse_experiment_config("flow.preset = off\n");
  EXPECT_FALSE(off.l2cap_deferred_credits);
  EXPECT_FALSE(off.flow.any());
  EXPECT_EQ(off.cc.mode, app::CoapCcConfig::Mode::kFixedRto);

  const auto link = parse_experiment_config("flow.preset = link\n");
  EXPECT_TRUE(link.l2cap_deferred_credits);
  EXPECT_FALSE(link.flow.any());

  const auto netif = parse_experiment_config("flow.preset = netif\n");
  EXPECT_EQ(netif.flow.txq_frames, 16u);
  EXPECT_TRUE(netif.flow.backoff);
  EXPECT_TRUE(netif.flow.breaker);
  EXPECT_FALSE(netif.l2cap_deferred_credits);

  const auto app = parse_experiment_config("flow.preset = app\n");
  EXPECT_EQ(app.cc.mode, app::CoapCcConfig::Mode::kCocoa);
  EXPECT_EQ(app.cc.nstart, 16u);

  const auto all = parse_experiment_config("flow.preset = all\n");
  EXPECT_TRUE(all.l2cap_deferred_credits);
  EXPECT_TRUE(all.flow.any());
  EXPECT_EQ(all.cc.mode, app::CoapCcConfig::Mode::kCocoa);
}

TEST(ConfigFile, FlowKeyValidationIsStrictAndDeterministic) {
  const auto expect_msg = [](const char* text, const char* needle) {
    try {
      (void)parse_experiment_config(text);
      FAIL() << "expected throw for: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find(needle), std::string::npos)
          << "got: " << e.what();
    }
  };
  expect_msg("flow.preset = everything\n",
             "config: unknown flow.preset 'everything' (off|link|netif|app|all)");
  expect_msg("flow.l2cap_credits = batched\n", "flow.l2cap_credits");
  expect_msg("flow.initial_credits = 0\n",
             "config: flow.initial_credits out of range [1, 65535]");
  expect_msg("flow.initial_credits = 1.5\n", "config: bad flow.initial_credits");
  expect_msg("flow.initial_credits = -3\n", "config: bad flow.initial_credits");
  expect_msg("flow.txq_frames = banana\n", "config: bad flow.txq_frames");
  expect_msg("flow.backoff = sometimes\n", "flow.backoff");
  expect_msg("flow.backoff_base = fast\n", "flow.backoff_base");
  expect_msg("flow.breaker_threshold = 0\n", "out of range");
  expect_msg("flow.congest_on_pct = 0\n",
             "config: flow.congest_on_pct out of range [1, 100]");
  expect_msg("flow.congest_off_pct = 101\n", "out of range");
  expect_msg("flow.congest_on_pct = 40\nflow.congest_off_pct = 60\n",
             "config: flow.congest_off_pct must not exceed flow.congest_on_pct");
  expect_msg("flow.backoff_base = 2s\nflow.backoff_max = 1s\n",
             "config: flow.backoff_base must not exceed flow.backoff_max");
  expect_msg("cc.mode = vegas\n", "cc.mode");
  expect_msg("cc.nstart = 65537\n", "out of range");
}

TEST(ConfigFile, FlowKeysRenderAndParseBack) {
  ExperimentConfig cfg;
  cfg.l2cap_deferred_credits = true;
  cfg.l2cap_credit_batch = 4;
  cfg.flow.txq_frames = 8;
  cfg.flow.backoff = true;
  cfg.flow.backoff_base = sim::Duration::ms(15);
  cfg.flow.breaker = true;
  cfg.flow.breaker_threshold = 5;
  cfg.cc.mode = app::CoapCcConfig::Mode::kCocoa;
  cfg.cc.nstart = 1;
  const std::string text = render_experiment_config(cfg);
  const auto round = parse_experiment_config(text);
  EXPECT_TRUE(round.l2cap_deferred_credits);
  EXPECT_EQ(round.l2cap_credit_batch, 4u);
  EXPECT_EQ(round.flow.txq_frames, 8u);
  EXPECT_TRUE(round.flow.backoff);
  EXPECT_EQ(round.flow.backoff_base, sim::Duration::ms(15));
  EXPECT_TRUE(round.flow.breaker);
  EXPECT_EQ(round.flow.breaker_threshold, 5u);
  EXPECT_EQ(round.cc.mode, app::CoapCcConfig::Mode::kCocoa);
  EXPECT_EQ(round.cc.nstart, 1u);
  // Defaults stay unrendered so legacy configs remain byte-stable.
  const std::string defaults = render_experiment_config(ExperimentConfig{});
  EXPECT_EQ(defaults.find("flow."), std::string::npos);
  EXPECT_EQ(defaults.find("cc."), std::string::npos);
}

const std::filesystem::path kExperimentsDir =
    std::filesystem::path{MINDGAP_SOURCE_DIR} / "examples" / "experiments";

std::vector<campaign::CellConfig> shipped_grid(const char* name) {
  return campaign::expand_grid(
      campaign::load_campaign_spec((kExperimentsDir / name).string()));
}

TEST(ConfigFile, ShippedSampleConfigsParse) {
  ASSERT_TRUE(std::filesystem::is_directory(kExperimentsDir)) << kExperimentsDir;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator{kExperimentsDir}) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const std::filesystem::path& path : files) {
    SCOPED_TRACE(path.string());
    if (path.extension() == ".conf") {
      EXPECT_NO_THROW((void)load_experiment_config(path.string()));
    } else if (path.extension() == ".campaign") {
      EXPECT_NO_THROW(
          (void)campaign::expand_grid(campaign::load_campaign_spec(path.string())));
    }
  }
  // The per-figure definitions EXPERIMENTS.md runs.
  for (const char* name :
       {"fig7_tree.conf", "fig7_line.conf", "fig08a_interval.campaign",
        "fig08b_producer.campaign", "fig10_802154.conf", "fig10_ble25.conf",
        "fig13_24h.campaign", "fig14_losses.campaign", "fig15_grid.campaign",
        "abl_coap_retransmission.campaign", "fig09a_high_load.conf",
        "fig09b_slow_interval.conf", "fault_recovery.conf",
        "abl_mitigation_designs.campaign", "abl_adaptive_channel_map.campaign",
        "tab01_radio.campaign"}) {
    EXPECT_TRUE(std::filesystem::is_regular_file(kExperimentsDir / name)) << name;
  }
}

// The figure specs spell out the values their sweeps couple: supervision
// max(2s, 6 x interval) or 2 s / 4 s by interval class, jitter half the
// producer interval.
TEST(ConfigFile, ShippedFigureSpecsKeepCoupledValues) {
  for (const char* name : {"fig08a_interval.campaign", "fig08b_producer.campaign",
                           "abl_coap_retransmission.campaign"}) {
    for (const campaign::CellConfig& cell : shipped_grid(name)) {
      EXPECT_EQ(cell.config.supervision_timeout,
                sim::max(sim::Duration::sec(2), cell.config.policy.target() * 6))
          << name << ": " << cell.label();
    }
  }
  for (const char* name : {"fig14_losses.campaign", "fig15_grid.campaign"}) {
    for (const campaign::CellConfig& cell : shipped_grid(name)) {
      EXPECT_EQ(cell.config.supervision_timeout,
                cell.config.policy.target() >= sim::Duration::ms(400) ? sim::Duration::sec(4)
                                                                      : sim::Duration::sec(2))
          << name << ": " << cell.label();
    }
  }
  for (const char* name : {"fig08b_producer.campaign", "fig15_grid.campaign"}) {
    for (const campaign::CellConfig& cell : shipped_grid(name)) {
      EXPECT_EQ(cell.config.producer_jitter, cell.config.producer_interval / 2)
          << name << ": " << cell.label();
    }
  }
}

// --- link.backend / mesh.* strict validation -------------------------------

/// Asserts that parsing `line` fails with exactly `message` — the rejection
/// paths are part of the config contract, not just "some exception".
void expect_config_error(const std::string& line, const std::string& message) {
  try {
    (void)parse_experiment_config(line + "\n");
    FAIL() << "expected '" << line << "' to be rejected";
  } catch (const std::runtime_error& err) {
    EXPECT_EQ(err.what(), message) << "for: " << line;
  }
}

TEST(ConfigFile, LinkBackendParses) {
  EXPECT_EQ(parse_experiment_config("link.backend = ble\n").radio,
            core::LinkBackendKind::kBle);
  EXPECT_EQ(parse_experiment_config("link.backend = 802154\n").radio,
            core::LinkBackendKind::kIeee802154);
  EXPECT_EQ(parse_experiment_config("link.backend = ieee802154\n").radio,
            core::LinkBackendKind::kIeee802154);
  EXPECT_EQ(parse_experiment_config("link.backend = mesh\n").radio,
            core::LinkBackendKind::kMesh);
  EXPECT_EQ(parse_experiment_config("link.backend = adv\n").radio,
            core::LinkBackendKind::kAdv);
  expect_config_error("link.backend = zigbee",
                      "config: unknown link.backend 'zigbee'");
  // The legacy `radio` spelling stays limited to the original two.
  expect_config_error("radio = mesh", "config: unknown radio 'mesh'");
}

TEST(ConfigFile, MeshKeysParse) {
  const auto cfg = parse_experiment_config(R"(
link.backend = mesh
mesh.ttl = 9
mesh.relay_density = 0.25
mesh.cache_entries = 256
mesh.transmit_count = 3
mesh.adv_interval = 40ms
mesh.heartbeat_period = 2s
mesh.queue_cap = 128
mesh.reasm_entries = 64
mesh.scan_duty = 0.5
energy.account = true
)");
  EXPECT_EQ(cfg.radio, core::LinkBackendKind::kMesh);
  EXPECT_EQ(cfg.mesh.ttl, 9u);
  EXPECT_DOUBLE_EQ(cfg.mesh.relay_density, 0.25);
  EXPECT_EQ(cfg.mesh.cache_entries, 256u);
  EXPECT_EQ(cfg.mesh.transmit_count, 3u);
  EXPECT_EQ(cfg.mesh.adv_interval, sim::Duration::ms(40));
  EXPECT_EQ(cfg.mesh.heartbeat_period, sim::Duration::sec(2));
  EXPECT_EQ(cfg.mesh.queue_cap, 128u);
  EXPECT_EQ(cfg.mesh.reasm_entries, 64u);
  EXPECT_DOUBLE_EQ(cfg.mesh.scan_duty, 0.5);
  EXPECT_TRUE(cfg.energy_account);
  // "off" and "0" both disable heartbeats.
  EXPECT_TRUE(parse_experiment_config("mesh.heartbeat_period = off\n")
                  .mesh.heartbeat_period.is_zero());
  EXPECT_TRUE(parse_experiment_config("mesh.heartbeat_period = 0\n")
                  .mesh.heartbeat_period.is_zero());
}

TEST(ConfigFile, MeshKeysRejectBadValues) {
  expect_config_error("mesh.ttl = 0", "config: mesh.ttl out of range [1, 127]");
  expect_config_error("mesh.ttl = 128",
                      "config: mesh.ttl out of range [1, 127]");
  expect_config_error("mesh.ttl = lots", "config: bad mesh.ttl");
  expect_config_error("mesh.relay_density = 1.5",
                      "config: mesh.relay_density out of range [0, 1]");
  expect_config_error("mesh.relay_density = -0.1",
                      "config: mesh.relay_density out of range [0, 1]");
  expect_config_error("mesh.relay_density = dense",
                      "config: bad mesh.relay_density");
  expect_config_error("mesh.cache_entries = 2",
                      "config: mesh.cache_entries out of range [4, 65536]");
  expect_config_error("mesh.transmit_count = 9",
                      "config: mesh.transmit_count out of range [1, 8]");
  expect_config_error("mesh.transmit_count = 0",
                      "config: mesh.transmit_count out of range [1, 8]");
  expect_config_error("mesh.adv_interval = 1ms",
                      "config: mesh.adv_interval out of range [5ms, 10s]");
  expect_config_error("mesh.adv_interval = 11s",
                      "config: mesh.adv_interval out of range [5ms, 10s]");
  expect_config_error("mesh.adv_interval = soon",
                      "config: bad mesh.adv_interval");
  expect_config_error("mesh.heartbeat_period = sometimes",
                      "config: bad mesh.heartbeat_period");
  expect_config_error("mesh.queue_cap = 2",
                      "config: mesh.queue_cap out of range [4, 4096]");
  expect_config_error("mesh.reasm_entries = 0",
                      "config: mesh.reasm_entries out of range [1, 256]");
  expect_config_error("mesh.scan_duty = 0",
                      "config: mesh.scan_duty out of range (0, 1]");
  expect_config_error("mesh.scan_duty = 1.2",
                      "config: mesh.scan_duty out of range (0, 1]");
  expect_config_error("energy.account = maybe",
                      "config: bad boolean for 'energy.account'");
}

TEST(ConfigFile, MeshConfigRendersBackIdentically) {
  ExperimentConfig cfg;
  cfg.radio = core::LinkBackendKind::kMesh;
  cfg.mesh.ttl = 5;
  cfg.mesh.relay_density = 0.5;
  cfg.mesh.transmit_count = 2;
  cfg.mesh.adv_interval = sim::Duration::ms(40);
  cfg.mesh.heartbeat_period = sim::Duration::sec(4);
  cfg.mesh.scan_duty = 0.75;
  cfg.energy_account = true;
  const auto round = parse_experiment_config(render_experiment_config(cfg));
  EXPECT_EQ(round.radio, core::LinkBackendKind::kMesh);
  EXPECT_EQ(round.mesh.ttl, 5u);
  EXPECT_DOUBLE_EQ(round.mesh.relay_density, 0.5);
  EXPECT_EQ(round.mesh.transmit_count, 2u);
  EXPECT_EQ(round.mesh.adv_interval, sim::Duration::ms(40));
  EXPECT_EQ(round.mesh.heartbeat_period, sim::Duration::sec(4));
  EXPECT_DOUBLE_EQ(round.mesh.scan_duty, 0.75);
  EXPECT_TRUE(round.energy_account);
}

TEST(ConfigFile, RejectsMalformedNumbers) {
  // Durations are never negative.
  for (const char* key :
       {"duration", "producer_interval", "producer_jitter", "conn_interval",
        "supervision_timeout", "metrics_bucket", "reconnect_backoff_base",
        "reconnect_backoff_max", "reconnect_backoff_jitter", "flow.backoff_base",
        "flow.backoff_max", "flow.backoff_jitter", "flow.breaker_open", "mesh.adv_interval",
        "mesh.heartbeat_period"}) {
    expect_config_error(std::string{key} + " = -5s", std::string{"config: bad "} + key);
  }
  expect_config_error("conn_interval = -85:-65ms", "config: bad conn_interval");
  expect_config_error("conn_interval = 85:65ms", "config: bad conn_interval");
  expect_config_error("duration = 300000000h", "config: bad duration");
  // A zero bucket would divide by zero once the run starts.
  expect_config_error("metrics_bucket = 0s", "config: bad metrics_bucket");
  // Integers only: no sign, no fraction, nothing past 64 bits.
  expect_config_error("payload_len = -3", "config: bad payload_len");
  expect_config_error("payload_len = 2.5", "config: bad payload_len");
  expect_config_error("seed = 2.7", "config: bad seed");
  expect_config_error("seed = -1", "config: bad seed");
  expect_config_error("seed = 1e30", "config: bad seed");
  expect_config_error("topo.seed = -1", "config: bad topo.seed");
  expect_config_error("topo.nodes = 1e12", "config: bad topo.nodes");
  // Other spellings of an integer stay accepted; 64-bit seeds are exact.
  EXPECT_EQ(parse_experiment_config("seed = 1e3\n").seed, 1000u);
  EXPECT_EQ(parse_experiment_config("payload_len = 16.0\n").payload_len, 16u);
  EXPECT_EQ(parse_experiment_config("seed = 18446744073709551615\n").seed,
            18446744073709551615u);
  EXPECT_EQ(parse_experiment_config("metrics_bucket = 1us\n").metrics_bucket,
            sim::Duration::us(1));
}

// Every description value goes through a typed binder, so a `topo.*` key and
// a `fault.N` field reject a fraction for a count, NaN, and a value past
// their type exactly as any other key does.
TEST(ConfigFile, RejectsMalformedValuesInEveryKeyAndFaultField) {
  const std::pair<const char*, const char*> cases[] = {
      {"topo.nodes = 9.7", "config: bad topo.nodes"},
      {"topo.max_degree = nan", "config: bad topo.max_degree"},
      {"topo.max_degree = 3.9", "config: bad topo.max_degree"},
      {"topo.grid_jitter = nan", "config: bad topo.grid_jitter"},
      {"topo.tx_power_dbm = nan", "config: bad topo.tx_power_dbm"},
      {"fault.0 = crash node=2.7 at=1s", "config: 'fault.0': fault: bad node="},
      {"fault.0 = crash node=1e20 at=1s", "config: 'fault.0': fault: bad node="},
      {"fault.0 = blackout link=1e30-2 at=1s for=1s", "config: 'fault.0': fault: bad link="},
      {"fault.0 = clock_drift node=2 at=1s ppm=nan", "config: 'fault.0': fault: bad ppm="},
      {"fault.0 = clock_drift node=2 at=1s ppm=inf",
       "config: 'fault.0': fault: ppm= out of range [-1000, 1000]"},
      {"fault.0 = clock_drift node=2 at=1s ppm=1e300",
       "config: 'fault.0': fault: ppm= out of range [-1000, 1000]"},
      {"fault.0 = clock_drift node=2 at=1s ppm=-1e6",
       "config: 'fault.0': fault: ppm= out of range [-1000, 1000]"},
      {"fault.0 = attenuate link=2-5 at=1s for=2s per=nan",
       "config: 'fault.0': fault: bad per="},
      {"fault.0 = interfere channels=1-3 at=1s for=2s node=3 radius=nan",
       "config: 'fault.0': fault: bad radius="},
      {"fault.0 = pressure node=2 at=1s for=1s bytes=1e30",
       "config: 'fault.0': fault: bad bytes="},
      {"mesh.relay_density = nan", "config: bad mesh.relay_density"},
      {"base_per = nan", "config: bad base_per"},
      {"base_per = 1.5", "config: base_per out of range [0, 1]"},
      {"chaos_rate = nan", "config: bad chaos_rate"},
      {"drift_ppm_range = -1", "config: drift_ppm_range out of range [0, 1000]"},
      {"drift_ppm_range = 1e300", "config: drift_ppm_range out of range [0, 1000]"},
      {"topo.range = inf", "config: bad topo.range"},
      {"topo.tx_power_dbm = -inf", "config: bad topo.tx_power_dbm"},
      {"chaos_rate = inf", "config: bad chaos_rate"},
      {"fault.0 = interfere channels=1-3 at=1s for=2s node=3 radius=inf",
       "config: 'fault.0': fault: bad radius="},
      {"topology = star3.9", "config: bad topology"},
      {"topology = star1", "config: topology out of range [2, 100000]"},
      {"topology = star100001", "config: topology out of range [2, 100000]"},
  };
  for (const auto& [line, message] : cases) expect_config_error(line, message);
}

// A configuration built in code meets the bounds a parsed one does: the
// Experiment constructor rejects each value with the text its parse gives.
TEST(ConfigFile, ExperimentRejectsCodeBuiltValuesWithTheParsedText) {
  fault::FaultEvent drift;
  drift.kind = fault::FaultKind::kClockDrift;
  drift.node = 2;
  drift.at = sim::TimePoint::origin() + sim::Duration::sec(1);
  drift.ppm = 1e300;
  fault::FaultEvent jam;
  jam.kind = fault::FaultKind::kInterfere;
  jam.at = sim::TimePoint::origin() + sim::Duration::sec(1);
  jam.duration = sim::Duration::sec(2);
  jam.chan_lo = 14;
  jam.chan_hi = 10;
  struct Case {
    const char* conf;
    const char* message;
    std::function<void(ExperimentConfig&)> set;
  };
  const Case cases[] = {
      {"metrics_bucket = 0s", "config: bad metrics_bucket",
       [](ExperimentConfig& c) { c.metrics_bucket = sim::Duration{}; }},
      {"drift_ppm_range = 1e300", "config: drift_ppm_range out of range [0, 1000]",
       [](ExperimentConfig& c) { c.drift_ppm_range = 1e300; }},
      {"topo.generator = rgg\ntopo.nodes = 1", "config: topo.nodes out of range [2, 100000]",
       [](ExperimentConfig& c) {
         c.topo.generator = topo::Generator::kRgg;
         c.topo.nodes = 1;
       }},
      {"fault.0 = clock_drift node=2 at=1s ppm=1e300",
       "config: 'fault.0': fault: ppm= out of range [-1000, 1000]",
       [&](ExperimentConfig& c) { c.faults["fault.0"] = drift; }},
      {"fault.0 = interfere channels=14-10 at=1s for=2s",
       "config: 'fault.0': fault: channels= needs LO <= HI",
       [&](ExperimentConfig& c) { c.faults["fault.0"] = jam; }},
  };
  for (const Case& c : cases) {
    expect_config_error(c.conf, c.message);
    ExperimentConfig cfg;
    c.set(cfg);
    try {
      const Experiment exp{cfg};
      ADD_FAILURE() << "expected the code-built twin of '" << c.conf << "' to be rejected";
    } catch (const std::runtime_error& err) {
      EXPECT_EQ(err.what(), std::string{c.message}) << "for: " << c.conf;
    }
  }
}

/// One non-default value per key, as `input` lines, and the lines the render
/// must then contain (the input itself unless given).
struct KeySample {
  std::string_view key;
  std::string input;
  std::string expect{};
};

const KeySample kSamples[] = {
    {"radio", "radio = ieee802154"},
    {"link.backend", "link.backend = mesh"},
    {"topology", "topology = star7"},
    {"topo.generator", "topo.generator = rgg"},
    {"topo.nodes", "topo.generator = rgg\ntopo.nodes = 40"},
    {"topo.area", "topo.generator = rgg\ntopo.area = 123.456789"},
    {"topo.density", "topo.generator = rgg\ntopo.density = 7.123456789"},
    {"topo.range", "topo.generator = rgg\ntopo.range = 9.87654321"},
    {"topo.max_degree", "topo.generator = rgg\ntopo.max_degree = 5"},
    {"topo.grid_jitter", "topo.generator = jitter_grid\ntopo.grid_jitter = 0.123456789"},
    {"topo.rooms", "topo.generator = floorplan\ntopo.rooms = 4x3"},
    {"topo.wall_loss_db", "topo.generator = floorplan\ntopo.wall_loss_db = 3.3333333333"},
    {"topo.tx_power_dbm", "topo.generator = rgg\ntopo.tx_power_dbm = -4.123456789"},
    {"topo.path_loss_exp", "topo.generator = rgg\ntopo.path_loss_exp = 2.718281828"},
    {"topo.sensitivity_dbm", "topo.generator = rgg\ntopo.sensitivity_dbm = -90.25"},
    {"topo.fade_margin_db", "topo.generator = rgg\ntopo.fade_margin_db = 7.125"},
    {"topo.seed", "topo.generator = rgg\ntopo.seed = 99"},
    {"duration", "duration = 90s"},
    {"producer_interval", "producer_interval = 250ms"},
    {"producer_jitter", "producer_jitter = 125ms"},
    {"conn_interval", "conn_interval = 65ms:85ms"},
    {"conn_interval", "conn_interval = 30ms"},
    {"supervision_timeout", "supervision_timeout = 4s"},
    {"payload_len", "payload_len = 100"},
    {"seed", "seed = 18446744073709551615"},
    {"base_per", "base_per = 0.0123456789"},
    {"drift_ppm_range", "drift_ppm_range = 3.14159265358979"},
    {"jam_channel_22", "jam_channel_22 = false"},
    {"exclude_channel_22", "exclude_channel_22 = false"},
    {"adaptive_channel_map", "adaptive_channel_map = true"},
    {"confirmable_coap", "confirmable_coap = true"},
    {"param_update_mitigation", "param_update_mitigation = true"},
    {"arena", "arena = false"},
    {"compression", "compression = iphc"},
    {"metrics_bucket", "metrics_bucket = 2500us"},
    {"metrics_bucket", "metrics_bucket = 1500ns"},
    // One per fault kind; reals render to the last digit.
    {"fault.", "fault.2 = crash node=3 at=20s reboot_after=5s"},
    {"fault.", "fault.0 = blackout link=2-5 at=60s for=3s"},
    {"fault.", "fault.1 = attenuate link=2-5 at=1s for=2s per=0.123456789"},
    {"fault.", "fault.3 = interfere channels=10-14 at=90s for=5s per=0.987654321 node=3 "
               "radius=12.3456789"},
    {"fault.", "fault.4 = clock_drift node=4 at=20s ppm=-123.456789012 for=30s"},
    {"fault.", "fault.5 = clock_step node=4 at=20s step=-40ms"},
    {"fault.", "fault.6 = pressure node=2 at=15s for=10s bytes=4096 radius=7.123456789"},
    {"chaos_rate", "chaos_rate = 0.333333333333"},
    {"chaos_kinds", "chaos_rate = 1\nchaos_kinds = crash+blackout"},
    {"reconnect_backoff_base", "reconnect_backoff_base = 15ms"},
    {"reconnect_backoff_max", "reconnect_backoff_max = 2s"},
    {"reconnect_backoff_jitter", "reconnect_backoff_jitter = 7ms"},
    {"flow.preset", "flow.preset = all",
     "flow.l2cap_credits = deferred\nflow.txq_frames = 16\nflow.backoff = true\n"
     "flow.breaker = true\ncc.mode = cocoa\ncc.nstart = 16"},
    {"flow.l2cap_credits", "flow.l2cap_credits = deferred"},
    {"flow.initial_credits", "flow.initial_credits = 12"},
    {"flow.credit_batch", "flow.credit_batch = 4"},
    {"flow.txq_frames", "flow.txq_frames = 64"},
    {"flow.backoff", "flow.backoff = true"},
    {"flow.backoff_base", "flow.backoff_base = 15ms"},
    {"flow.backoff_max", "flow.backoff_max = 2s"},
    {"flow.backoff_jitter", "flow.backoff_jitter = 3ms"},
    {"flow.breaker", "flow.breaker = true"},
    {"flow.breaker_threshold", "flow.breaker_threshold = 3"},
    {"flow.breaker_open", "flow.breaker_open = 750ms"},
    {"flow.breaker_probes", "flow.breaker_probes = 5"},
    {"flow.congest_on_pct", "flow.congest_on_pct = 90"},
    {"flow.congest_off_pct", "flow.congest_off_pct = 10"},
    {"cc.mode", "cc.mode = cocoa"},
    {"cc.nstart", "cc.nstart = 4"},
    {"mesh.ttl", "mesh.ttl = 9"},
    {"mesh.relay_density", "mesh.relay_density = 0.123456789"},
    {"mesh.cache_entries", "mesh.cache_entries = 256"},
    {"mesh.transmit_count", "mesh.transmit_count = 3"},
    {"mesh.adv_interval", "mesh.adv_interval = 40ms"},
    {"mesh.heartbeat_period", "mesh.heartbeat_period = 2s"},
    {"mesh.queue_cap", "mesh.queue_cap = 128"},
    {"mesh.reasm_entries", "mesh.reasm_entries = 16"},
    {"mesh.scan_duty", "mesh.scan_duty = 0.987654321"},
    {"energy.account", "energy.account = true"},
    {"trace.file", "trace.file = /tmp/a.mgt"},
    {"trace.pcap", "trace.pcap = /tmp/a.pcapng"},
    {"trace.categories", "trace.categories = ll,net"},
};

// Walks the key table: for every key, a non-default value renders exactly as
// written (reals included, to the last digit) and parses back to the same
// render.
TEST(ConfigFile, EveryKeySurvivesRenderAndParse) {
  const std::string defaults = render_experiment_config(ExperimentConfig{});
  const std::vector<std::string_view> keys = experiment_config_keys();
  for (const std::string_view key : keys) {
    SCOPED_TRACE(key);
    bool sampled = false;
    for (const KeySample& sample : kSamples) {
      if (sample.key != key) continue;
      sampled = true;
      const std::string rendered = render_experiment_config(parse_experiment_config(sample.input));
      EXPECT_NE(rendered, defaults);
      std::istringstream want{sample.expect.empty() ? sample.input : sample.expect};
      for (std::string line; std::getline(want, line);) {
        EXPECT_NE(rendered.find(line + "\n"), std::string::npos) << line << "\nin:\n" << rendered;
      }
      EXPECT_EQ(render_experiment_config(parse_experiment_config(rendered)), rendered);
    }
    EXPECT_TRUE(sampled) << "no sample for key " << key;
  }
  for (const KeySample& sample : kSamples) {
    EXPECT_NE(std::find(keys.begin(), keys.end(), sample.key), keys.end()) << sample.key;
  }
}

// One rule for both parsers: keys apply in file order and the last value
// wins, so a knob after a preset overrides it in a .conf and a campaign alike.
TEST(ConfigFile, ConfAndCampaignApplyKeysInFileOrder) {
  for (const char* text : {"flow.preset = all\ncc.nstart = 4\n",
                           "cc.nstart = 4\nflow.preset = all\n",
                           "duration = 1m\nradio = 802154\nduration = 2m\nlink.backend = adv\n"}) {
    SCOPED_TRACE(text);
    const ExperimentConfig conf = parse_experiment_config(text);
    EXPECT_EQ(render_experiment_config(conf),
              render_experiment_config(campaign::parse_campaign_spec(text).base));
  }
  EXPECT_EQ(parse_experiment_config("flow.preset = all\ncc.nstart = 4\n").cc.nstart, 4u);
  EXPECT_EQ(parse_experiment_config("cc.nstart = 4\nflow.preset = all\n").cc.nstart, 16u);
  const ExperimentConfig repeated =
      parse_experiment_config("duration = 1m\nradio = 802154\nduration = 2m\nlink.backend = adv\n");
  EXPECT_EQ(repeated.duration, sim::Duration::minutes(2));
  EXPECT_EQ(repeated.radio, core::LinkBackendKind::kAdv);
}

}  // namespace
}  // namespace mgap::testbed
