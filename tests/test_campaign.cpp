// Unit tests for the campaign subsystem: grid expansion, seed-range parsing,
// CI aggregation math, writer determinism across thread counts, and the
// thread-safety contract that makes cells embarrassingly parallel.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/aggregate.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "campaign/writers.hpp"
#include "testbed/config_file.hpp"
#include "testbed/report.hpp"

namespace mgap::campaign {
namespace {

TEST(SeedList, Range) {
  EXPECT_EQ(parse_seed_list("1..5"), (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(parse_seed_list(" 7 .. 7 "), (std::vector<std::uint64_t>{7}));
}

TEST(SeedList, Explicit) {
  EXPECT_EQ(parse_seed_list("3, 1, 9"), (std::vector<std::uint64_t>{3, 1, 9}));
  EXPECT_EQ(parse_seed_list("42"), (std::vector<std::uint64_t>{42}));
}

TEST(SeedList, RejectsGarbage) {
  EXPECT_THROW(parse_seed_list(""), std::runtime_error);
  EXPECT_THROW(parse_seed_list("a..b"), std::runtime_error);
  EXPECT_THROW(parse_seed_list("5..1"), std::runtime_error);
  EXPECT_THROW(parse_seed_list("1,,3"), std::runtime_error);
  EXPECT_THROW(parse_seed_list("1.5"), std::runtime_error);
}

TEST(SpecParse, AxesScalarsAndSeeds) {
  const CampaignSpec spec = parse_campaign_spec(R"(
# sweep fixture
campaign = fixture
topology = star5
duration = 30s
conn_interval = 25ms, 75ms   # axis 1
producer_interval = 1s, 5s   # axis 2
payload_len = 16
seeds = 1..3
)");
  EXPECT_EQ(spec.name, "fixture");
  EXPECT_EQ(spec.base.payload_len, 16u);
  EXPECT_EQ(spec.base.duration, sim::Duration::sec(30));
  ASSERT_EQ(spec.axes.size(), 2u);
  EXPECT_EQ(spec.axes[0].keys, (std::vector<std::string>{"conn_interval"}));
  EXPECT_EQ(spec.axes[1].values, (std::vector<std::vector<std::string>>{{"1s"}, {"5s"}}));
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(spec.grid_size(), 4u);
  EXPECT_EQ(spec.cell_count(), 12u);
}

TEST(SpecParse, RejectsBadInput) {
  EXPECT_THROW(parse_campaign_spec("unknown_key = 1, 2"), std::runtime_error);
  EXPECT_THROW(parse_campaign_spec("conn_interval = 25ms, banana"),
               std::runtime_error);
  EXPECT_THROW(parse_campaign_spec("conn_interval = 25ms,, 75ms"),
               std::runtime_error);
  EXPECT_THROW(parse_campaign_spec("conn_interval = 25ms, 50ms\n"
                                   "conn_interval = 75ms, 100ms"),
               std::runtime_error);
  EXPECT_THROW(parse_campaign_spec("just a line"), std::runtime_error);
  // Zip axes: one value per key in every step, valid values, each key swept
  // by at most one axis.
  EXPECT_THROW(parse_campaign_spec("conn_interval | supervision_timeout = 25ms | 2s, 50ms"),
               std::runtime_error);
  EXPECT_THROW(parse_campaign_spec("conn_interval | supervision_timeout = 25ms | 2s | 3s"),
               std::runtime_error);
  EXPECT_THROW(parse_campaign_spec("conn_interval | supervision_timeout = 25ms | x, 50ms | 2s"),
               std::runtime_error);
  EXPECT_THROW(parse_campaign_spec("conn_interval | supervision_timeout = 25ms | , 50ms | 2s"),
               std::runtime_error);
  EXPECT_THROW(parse_campaign_spec("conn_interval | conn_interval = 25ms | 25ms, 50ms | 50ms"),
               std::runtime_error);
  EXPECT_THROW(parse_campaign_spec("supervision_timeout = 2s, 4s\n"
                                   "conn_interval | supervision_timeout = 25ms | 2s, 50ms | 4s"),
               std::runtime_error);
}

TEST(SpecParse, EmptySeedsFallBackToBaseSeed) {
  const CampaignSpec spec = parse_campaign_spec("seed = 9");
  EXPECT_EQ(spec.effective_seeds(), (std::vector<std::uint64_t>{9}));
  EXPECT_EQ(spec.cell_count(), 1u);
}

TEST(GridExpansion, RowMajorCrossProduct) {
  CampaignSpec spec;
  spec.axes.push_back({{"conn_interval"}, {{"25ms"}, {"75ms"}}});
  spec.axes.push_back({{"producer_interval"}, {{"1s"}, {"5s"}, {"10s"}}});
  const auto grid = expand_grid(spec);
  ASSERT_EQ(grid.size(), 6u);
  // First axis slowest: (25,1s) (25,5s) (25,10s) (75,1s) ...
  EXPECT_EQ(grid[0].label(), "conn_interval=25ms producer_interval=1s");
  EXPECT_EQ(grid[2].label(), "conn_interval=25ms producer_interval=10s");
  EXPECT_EQ(grid[3].label(), "conn_interval=75ms producer_interval=1s");
  EXPECT_EQ(grid[3].config.policy.target(), sim::Duration::ms(75));
  EXPECT_EQ(grid[5].config.producer_interval, sim::Duration::sec(10));
  for (std::size_t i = 0; i < grid.size(); ++i) EXPECT_EQ(grid[i].config_index, i);
}

TEST(GridExpansion, ZipAxisStepsKeysTogether) {
  // Coupled values (supervision tied to the interval) are one zip axis; it
  // crosses with the other axes like a single-key axis and labels every key.
  const CampaignSpec spec = parse_campaign_spec(
      "conn_interval | supervision_timeout = 100ms | 800ms, 500ms | 4s\n"
      "producer_interval = 1s, 5s\n");
  ASSERT_EQ(spec.axes.size(), 2u);
  EXPECT_EQ(spec.axes[0].keys,
            (std::vector<std::string>{"conn_interval", "supervision_timeout"}));
  const auto grid = expand_grid(spec);
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_EQ(grid[0].config.supervision_timeout, sim::Duration::ms(800));
  EXPECT_EQ(grid[1].config.supervision_timeout, sim::Duration::ms(800));
  EXPECT_EQ(grid[2].config.supervision_timeout, sim::Duration::sec(4));
  EXPECT_EQ(grid[2].config.policy.target(), sim::Duration::ms(500));
  EXPECT_EQ(grid[3].config.producer_interval, sim::Duration::sec(5));
  EXPECT_EQ(grid[3].label(),
            "conn_interval=500ms supervision_timeout=4s producer_interval=5s");
}

TEST(Aggregate, TCriticalValues) {
  EXPECT_NEAR(t_critical_95(1), 12.706, 1e-9);
  EXPECT_NEAR(t_critical_95(4), 2.776, 1e-9);
  EXPECT_NEAR(t_critical_95(9), 2.262, 1e-9);
  EXPECT_NEAR(t_critical_95(30), 2.042, 1e-9);
  EXPECT_NEAR(t_critical_95(1000), 1.960, 1e-9);
}

TEST(Aggregate, StatOfKnownSamples) {
  const Stat s = stat_of({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
  // t(df=4) * s / sqrt(5)
  EXPECT_NEAR(s.ci95, 2.776 * std::sqrt(2.5) / std::sqrt(5.0), 1e-9);
}

TEST(Aggregate, DegenerateSamples) {
  EXPECT_EQ(stat_of({}).n, 0u);
  const Stat one = stat_of({7.5});
  EXPECT_DOUBLE_EQ(one.mean, 7.5);
  EXPECT_DOUBLE_EQ(one.stddev, 0.0);
  EXPECT_DOUBLE_EQ(one.ci95, 0.0);
}

TEST(Aggregate, PoolsRttAcrossSeedsOnly) {
  CellResult a;
  a.config_index = 0;
  a.summary.coap_pdr = 0.9;
  a.rtt.add(sim::Duration::ms(10));
  CellResult b;
  b.config_index = 0;
  b.summary.coap_pdr = 1.0;
  b.rtt.add(sim::Duration::ms(30));
  CellResult other;
  other.config_index = 1;
  other.summary.coap_pdr = 0.0;
  other.rtt.add(sim::Duration::sec(5));
  const ConfigAggregate agg = aggregate_config(0, {a, b, other});
  EXPECT_EQ(agg.stat("coap_pdr").n, 2u);
  EXPECT_DOUBLE_EQ(agg.stat("coap_pdr").mean, 0.95);
  EXPECT_EQ(agg.pooled_rtt.count(), 2u);
  EXPECT_LT(agg.pooled_rtt.max_seen(), sim::Duration::sec(1));
}

TEST(SpecParse, EveryCellRunsTheConfCrossKeyChecks) {
  const auto error_of = [](const char* text) -> std::string {
    try {
      (void)expand_grid(parse_campaign_spec(text));
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "<no error>";
  };
  // flow.congest_on_pct defaults to 75, so a base of 95 is rejected, as run_experiment does.
  EXPECT_EQ(error_of("flow.congest_off_pct = 95\n"),
            "campaign base: config: flow.congest_off_pct must not exceed flow.congest_on_pct");
  EXPECT_EQ(error_of("flow.backoff_base = 2s\nflow.backoff_max = 1s\n"),
            "campaign base: config: flow.backoff_base must not exceed flow.backoff_max");
  EXPECT_EQ(error_of("topo.generator = rgg\ntopo.max_degree = 1\n"),
            "campaign base: config: topo: max_degree 1 cannot form a tree (use 0 or >= 2)");
  // A grid cell is checked as a whole: only one of these four cells is bad.
  EXPECT_EQ(error_of("flow.congest_on_pct = 40, 90\nflow.congest_off_pct = 30, 60\n"),
            "campaign cell flow.congest_on_pct=40 flow.congest_off_pct=60: config: "
            "flow.congest_off_pct must not exceed flow.congest_on_pct");
  // A base that is invalid on its own is fine when every cell is valid.
  EXPECT_EQ(error_of("flow.congest_off_pct = 80\nflow.congest_on_pct = 85, 90\n"),
            "<no error>");
  // The runner expands (and so checks) the grid before any cell runs.
  RunnerOptions options;
  options.progress = false;
  EXPECT_THROW((void)CampaignRunner{options}.run(parse_campaign_spec("flow.congest_off_pct = 95\n")),
               std::runtime_error);
}

/// A two-seed result with one axis column and one counter, written by hand.
CampaignResult pinned_result() {
  CampaignResult result;
  result.name = "pin";
  result.seeds = {1, 2};
  CellConfig config;
  config.assignment = {{"conn_interval", "75ms"}};
  result.configs.push_back(config);
  for (unsigned s = 1; s <= 2; ++s) {
    CellResult cell;
    cell.seed = s;
    cell.summary.topo_generator = "static:star";
    cell.summary.topo_nodes = 5;
    cell.summary.sent = 100 * s;
    cell.summary.acked = 90 * s;
    cell.summary.coap_pdr = 0.9 + 0.05 * s;
    cell.summary.rtt_p50 = sim::Duration::us(1500 * s);
    cell.summary.counters["radio.claims"] = 3.0 * s;
    cell.rtt.add(sim::Duration::ms(10 * s));
    result.cells.push_back(cell);
  }
  result.aggregates.push_back(aggregate_config(0, result.cells));
  return result;
}

// The exact CSV bytes, header and row, as written before the summary columns
// became one table.
TEST(Writers, CsvBytesArePinned) {
  EXPECT_EQ(to_csv(pinned_result(), false),
            "config_index,conn_interval,seeds,topo_generator,topo_nodes,topo_mean_hops_mean,"
            "topo_mean_hops_ci95,topo_max_hops_mean,topo_max_hops_ci95,sent_mean,sent_ci95,"
            "coap_pdr_mean,coap_pdr_ci95,ll_pdr_mean,ll_pdr_ci95,conn_losses_mean,"
            "conn_losses_ci95,reconnects_mean,reconnects_ci95,pktbuf_drops_mean,"
            "pktbuf_drops_ci95,backpressure_drops_mean,backpressure_drops_ci95,"
            "breaker_drops_mean,breaker_drops_ci95,rtt_p50_ms_mean,rtt_p50_ms_ci95,"
            "rtt_p99_ms_mean,rtt_p99_ms_ci95,losses_injected_mean,losses_injected_ci95,"
            "reconnect_p50_ms_mean,reconnect_p50_ms_ci95,repair_p50_ms_mean,"
            "repair_p50_ms_ci95,pdr_post_fault_mean,pdr_post_fault_ci95,pooled_rtt_p50_ms,"
            "pooled_rtt_p99_ms,radio.claims_mean,radio.claims_ci95\n"
            "0,75ms,2,static:star,5,0,0,0,0,150,635.3,0.9750000000000001,0.31764999999999954,"
            "1,0,0,0,0,0,0,0,0,0,0,0,2.25,9.529499999999999,0,0,0,0,0,0,0,0,1,0,10.181517,"
            "10.181517,4.5,19.058999999999997\n");
}

TEST(Writers, IntegerColumnsKeepIntegerFormatting) {
  CampaignResult result = pinned_result();
  result.cells[0].summary.sent = 100'000'000;
  const std::string json = to_json(result, false);
  EXPECT_NE(json.find("\"sent\": 100000000,"), std::string::npos);
  EXPECT_EQ(json.find("1e+08"), std::string::npos);
}

TEST(Writers, ConsoleLabelColumnFitsTheLongestLabel) {
  CampaignResult result = pinned_result();
  CellConfig wide = result.configs[0];
  wide.assignment = {{"conn_interval", "500ms"},
                     {"supervision_timeout", "4s"},
                     {"producer_interval", "100ms"},
                     {"producer_jitter", "50ms"}};
  result.configs.push_back(wide);
  result.aggregates.push_back(result.aggregates[0]);
  testing::internal::CaptureStdout();
  print_console_report(result);
  const std::string out = testing::internal::GetCapturedStdout();
  // Header and both rows line up: every table line has the same length.
  std::vector<std::string> lines;
  std::size_t pos = out.find("\n\n") + 2;
  while (pos < out.size()) {
    const std::size_t nl = out.find('\n', pos);
    lines.push_back(out.substr(pos, nl - pos));
    pos = nl + 1;
  }
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[1].size(), lines[0].size());
  EXPECT_EQ(lines[2].size(), lines[0].size());
  EXPECT_EQ(lines[2].rfind(wide.label(), 0), 0u);
}

TEST(FormatMeanCi, Renders) {
  EXPECT_EQ(testbed::format_mean_ci(0.99945, 0.00031), "0.9994 ±0.0003");
  EXPECT_EQ(testbed::format_mean_ci(209.4, 12.35, 1), "209.4 ±12.3");
}

// A small but real campaign used by the parallelism tests: 2 intervals x 2
// producer rates x 2 seeds on the 5-node star, 30 s + drain per cell.
CampaignSpec small_campaign() {
  return parse_campaign_spec(R"(
campaign = determinism_fixture
topology = star5
duration = 30s
producer_jitter = 250ms
conn_interval = 30ms, 75ms
producer_interval = 500ms, 1s
seeds = 1..2
)");
}

TEST(Runner, SerialAndParallelRunsAreByteIdentical) {
  RunnerOptions serial;
  serial.threads = 1;
  serial.progress = false;
  const CampaignResult r1 = CampaignRunner{serial}.run(small_campaign());

  RunnerOptions parallel;
  parallel.threads = std::max(2u, std::thread::hardware_concurrency());
  parallel.progress = false;
  const CampaignResult rn = CampaignRunner{parallel}.run(small_campaign());

  EXPECT_EQ(r1.threads_used, 1u);
  EXPECT_GE(rn.threads_used, 2u);
  // The determinism contract: JSON and CSV are byte-identical regardless of
  // the thread count (results keyed by (config, seed), wall times excluded).
  EXPECT_EQ(to_json(r1), to_json(rn));
  EXPECT_EQ(to_csv(r1), to_csv(rn));
}

TEST(Runner, SelfFormingCellsAreByteIdenticalAcrossThreads) {
  const CampaignSpec spec = parse_campaign_spec(R"(
campaign = self_forming_threads
topology = self_forming8
duration = 60s
conn_interval = 65:85ms
seeds = 1..2
)");
  RunnerOptions serial;
  serial.threads = 1;
  serial.progress = false;
  RunnerOptions parallel;
  parallel.threads = 2;
  parallel.progress = false;
  const CampaignResult r1 = CampaignRunner{serial}.run(spec);
  const CampaignResult r2 = CampaignRunner{parallel}.run(spec);
  EXPECT_EQ(r2.threads_used, 2u);
  EXPECT_EQ(to_json(r1), to_json(r2));
  EXPECT_EQ(to_csv(r1), to_csv(r2));
  EXPECT_NE(to_json(r1).find("\"rpl.formation_s\""), std::string::npos);
}

TEST(Runner, CellsMatchStandaloneExperiments) {
  RunnerOptions options;
  options.threads = 0;  // hardware_concurrency
  options.progress = false;
  const CampaignSpec spec = small_campaign();
  const CampaignResult result = CampaignRunner{options}.run(spec);
  ASSERT_EQ(result.cells.size(), spec.cell_count());

  // Spot-check one cell against a standalone serial Experiment with the same
  // (config, seed): sharding must not perturb results.
  const auto grid = expand_grid(spec);
  const std::size_t cell_index = 5;  // config 2, seed 2
  const CellResult& cell = result.cells[cell_index];
  testbed::ExperimentConfig cfg = grid[cell.config_index].config;
  cfg.seed = cell.seed;
  testbed::Experiment reference{cfg};
  reference.run();
  const testbed::ExperimentSummary expect = reference.summary();
  EXPECT_EQ(cell.summary.sent, expect.sent);
  EXPECT_EQ(cell.summary.acked, expect.acked);
  EXPECT_EQ(cell.summary.conn_losses, expect.conn_losses);
  EXPECT_EQ(cell.summary.rtt_p50, expect.rtt_p50);
  EXPECT_EQ(cell.summary.rtt_p99, expect.rtt_p99);
  EXPECT_EQ(cell.rtt.count(), reference.metrics().rtt().count());
}

// A cell that throws (an RGG world too sparse to form a tree) fails the
// campaign with the error of the lowest failing cell index — the cell a
// serial run stops at — at every thread count, instead of std::terminate from
// a worker thread. Every seed of the sparse configuration fails, and seed 3's
// message differs from seeds 1 and 2's; the good cells before them run first.
TEST(Runner, FailingCellRethrowsTheLowestIndexAtEveryThreadCount) {
  const CampaignSpec spec = parse_campaign_spec(R"(
campaign = failing_cell
topo.generator = rgg
topo.nodes = 30
topo.density = 8, 0.5
duration = 5s
seeds = 3, 1, 2
)");
  const auto error_at = [&spec](unsigned threads) -> std::string {
    RunnerOptions options;
    options.threads = threads;
    options.progress = false;
    try {
      (void)CampaignRunner{options}.run(spec);
    } catch (const std::exception& e) {
      return e.what();
    }
    return "no error";
  };
  // The lowest failing cell is config 1, seed 3.
  std::string expected = "no error";
  testbed::ExperimentConfig cfg = expand_grid(spec)[1].config;
  cfg.seed = 3;
  try {
    testbed::Experiment first_failing{cfg};
  } catch (const std::exception& e) {
    expected = e.what();
  }
  ASSERT_NE(expected, "no error");
  for (const unsigned threads : {1u, 2u, 4u}) {
    EXPECT_EQ(error_at(threads), expected) << threads << " thread(s)";
  }
}

// The thread-safety audit: two Experiment instances on different threads
// share no mutable state (per-instance Simulator, RNG streams, Metrics,
// worlds, trace recorder; no globals), so
// concurrent runs must reproduce serial runs bit-exactly. CI additionally
// builds this test under -fsanitize=thread.
TEST(ThreadSafety, ConcurrentExperimentsMatchSerialRuns) {
  auto make_config = [](std::uint64_t seed, int interval_ms) {
    testbed::ExperimentConfig cfg;
    cfg.topology = testbed::Topology::star(4);
    cfg.duration = sim::Duration::sec(20);
    cfg.policy = core::IntervalPolicy::fixed(sim::Duration::ms(interval_ms));
    cfg.seed = seed;
    return cfg;
  };

  testbed::ExperimentSummary serial_a, serial_b, threaded_a, threaded_b;
  {
    testbed::Experiment a{make_config(3, 30)};
    a.run();
    serial_a = a.summary();
    testbed::Experiment b{make_config(4, 75)};
    b.run();
    serial_b = b.summary();
  }
  {
    std::thread ta{[&] {
      testbed::Experiment a{make_config(3, 30)};
      a.run();
      threaded_a = a.summary();
    }};
    std::thread tb{[&] {
      testbed::Experiment b{make_config(4, 75)};
      b.run();
      threaded_b = b.summary();
    }};
    ta.join();
    tb.join();
  }
  EXPECT_EQ(serial_a.sent, threaded_a.sent);
  EXPECT_EQ(serial_a.acked, threaded_a.acked);
  EXPECT_EQ(serial_a.rtt_p50, threaded_a.rtt_p50);
  EXPECT_EQ(serial_b.sent, threaded_b.sent);
  EXPECT_EQ(serial_b.acked, threaded_b.acked);
  EXPECT_EQ(serial_b.rtt_p50, threaded_b.rtt_p50);
}

TEST(ScaledDuration, RejectsMalformedTimeScale) {
  const sim::Duration d = sim::Duration::hours(1);
  const auto scaled_with = [&](const char* value) {
    ::setenv("MGAP_TIME_SCALE", value, 1);
    const sim::Duration out = testbed::scaled_duration(d);
    ::unsetenv("MGAP_TIME_SCALE");
    return out;
  };
  EXPECT_EQ(scaled_with("banana"), d);
  EXPECT_EQ(scaled_with("0.5x"), d);
  EXPECT_EQ(scaled_with("nan"), d);
  EXPECT_EQ(scaled_with("inf"), d);
  EXPECT_EQ(scaled_with("-0.5"), d);
  EXPECT_EQ(scaled_with("0"), d);
  EXPECT_EQ(scaled_with("1.5"), d);
  EXPECT_EQ(scaled_with(""), d);
  EXPECT_EQ(scaled_with("0.5"), sim::Duration::minutes(30));
  // The floor still applies.
  EXPECT_EQ(scaled_with("0.001"), sim::Duration::sec(60));
  ::unsetenv("MGAP_TIME_SCALE");
  EXPECT_EQ(testbed::scaled_duration(d), d);
}

// A fault.N time is absolute, so a scaled run can end before it; each such
// fault is named once on stderr, and nothing else changes.
TEST(ScaledDuration, WarnsForEachFaultPastTheScaledEnd) {
  testbed::ExperimentConfig cfg =
      testbed::parse_experiment_config("duration = 10m\n"
                                       "fault.0 = crash node=2 at=2m reboot_after=10s\n"
                                       "fault.1 = blackout link=6-1 at=5m for=8s\n"
                                       "fault.2 = blackout link=6-1 at=8m for=8s\n");
  const auto apply_with = [&cfg](const char* value) {
    testbed::ExperimentConfig scaled = cfg;
    ::setenv("MGAP_TIME_SCALE", value, 1);
    testing::internal::CaptureStderr();
    testbed::apply_time_scale(scaled);
    const std::string err = testing::internal::GetCapturedStderr();
    ::unsetenv("MGAP_TIME_SCALE");
    EXPECT_EQ(scaled.faults.size(), cfg.faults.size());
    return std::make_pair(scaled.duration, err);
  };
  // 10 m x 0.5 ends at 5 m: the fault at 5 m is dropped too.
  const auto [half, half_err] = apply_with("0.5");
  EXPECT_EQ(half, sim::Duration::minutes(5));
  EXPECT_EQ(half_err.find("fault.0"), std::string::npos) << half_err;
  EXPECT_NE(half_err.find("fault.1"), std::string::npos) << half_err;
  EXPECT_NE(half_err.find("fault.2"), std::string::npos) << half_err;
  EXPECT_EQ(std::count(half_err.begin(), half_err.end(), '\n'), 2) << half_err;
  // Every fault still fires: no warning.
  const auto [most, most_err] = apply_with("0.9");
  EXPECT_EQ(most, sim::Duration::minutes(9));
  EXPECT_EQ(most_err, "");
  // Unscaled runs never warn.
  const auto [full, full_err] = apply_with("");
  EXPECT_EQ(full, cfg.duration);
  EXPECT_EQ(full_err, "");
}

// MGAP_TIME_SCALE shrinks every expanded cell, a `duration` axis included,
// and a fault past one cell's scaled end is named with that cell.
TEST(ScaledDuration, ScalesEveryCellOfADurationAxis) {
  const std::string world = "topology = star5\n"
                            "producer_interval = 1s\n"
                            "fault.0 = crash node=2 at=90s reboot_after=10s\n";
  RunnerOptions options;
  options.threads = 1;
  options.progress = false;
  const CampaignResult direct =
      CampaignRunner{options}.run(parse_campaign_spec(world + "duration = 60s, 120s\n"));

  ::setenv("MGAP_TIME_SCALE", "0.1", 1);
  options.time_scale = testbed::time_scale();
  ::unsetenv("MGAP_TIME_SCALE");
  ASSERT_EQ(options.time_scale, 0.1);
  testing::internal::CaptureStderr();
  const CampaignResult scaled =
      CampaignRunner{options}.run(parse_campaign_spec(world + "duration = 600s, 1200s\n"));
  const std::string err = testing::internal::GetCapturedStderr();

  ASSERT_EQ(scaled.configs.size(), 2u);
  EXPECT_EQ(scaled.configs[0].config.duration, sim::Duration::sec(60));
  EXPECT_EQ(scaled.configs[1].config.duration, sim::Duration::sec(120));
  ASSERT_EQ(scaled.cells.size(), direct.cells.size());
  for (std::size_t i = 0; i < scaled.cells.size(); ++i) {
    EXPECT_EQ(scaled.cells[i].summary.sent, direct.cells[i].summary.sent) << i;
    EXPECT_EQ(scaled.cells[i].summary.acked, direct.cells[i].summary.acked) << i;
  }
  EXPECT_GT(direct.cells[1].summary.sent, direct.cells[0].summary.sent);
  // Only the 60 s cell ends before the crash at 90 s.
  EXPECT_NE(err.find("cell 'duration=600s' at 60s, before fault.0"), std::string::npos)
      << err;
  EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
}

}  // namespace
}  // namespace mgap::campaign
