// Tests of the benchmark's own helpers: quantiles with their sample count,
// the output fingerprint, span self time, and failure counting when a
// campaign cell throws.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

TEST(Quantile, InterpolatesAndCountsSamples) {
  const std::vector<double> v = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  const Quantile p50 = quantile(v, 0.5);
  EXPECT_EQ(p50.samples, 10u);
  EXPECT_DOUBLE_EQ(p50.value, 5.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.9).value, 9.1);
  EXPECT_DOUBLE_EQ(quantile(v, 0.0).value, 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0).value, 10.0);
  EXPECT_DOUBLE_EQ(median({4.0}), 4.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Quantile, EmptyInputHasNoSamples) {
  const Quantile q = quantile({}, 0.5);
  EXPECT_EQ(q.samples, 0u);
  EXPECT_EQ(q.value, 0.0);
}

TEST(Fingerprint, MatchesFnv1aReferenceValues) {
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ull);
  EXPECT_NE(fnv1a("{\"seed\": 1}"), fnv1a("{\"seed\": 2}"));
  EXPECT_EQ(hex64(0xcd417c03098e3e06ull), "cd417c03098e3e06");
  EXPECT_EQ(hex64(1), "0000000000000001");
}

TEST(SelfTime, SubtractsTheUnionOfChildrenClippedToTheParent) {
  std::vector<Span> spans = {
      {"run", 0.0, 10.0, -1, 0},
      {"a", 1.0, 3.0, 0, 0},
      {"b", 2.0, 5.0, 0, 0},   // overlaps a: counted once
      {"c", 9.0, 12.0, 0, 0},  // clipped at the parent's end
      {"a.inner", 1.0, 2.0, 1, 0},
  };
  EXPECT_DOUBLE_EQ(self_time(spans, 0), 10.0 - 4.0 - 1.0);
  EXPECT_DOUBLE_EQ(self_time(spans, 1), 1.0);
  EXPECT_DOUBLE_EQ(self_time(spans, 4), 1.0);
  const std::vector<SpanTotal> totals = totals_by_name(spans);
  ASSERT_EQ(totals.size(), 5u);
  EXPECT_EQ(totals[0].name, "run");
  EXPECT_DOUBLE_EQ(totals[0].self, 5.0);
}

TEST(Trace, ScopesNestAndShareTheRunId) {
  Trace trace{true};
  trace.next_run();
  {
    const auto outer = trace.scope("outer");
    { const auto inner = trace.scope("inner"); }
    { const auto second = trace.scope("second"); }
  }
  const std::vector<Span>& s = trace.spans();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].parent, -1);
  EXPECT_EQ(s[1].parent, 0);
  EXPECT_EQ(s[2].parent, 0);
  for (const Span& span : s) {
    EXPECT_EQ(span.run, 1);
    EXPECT_LE(span.start, span.end);
  }
  EXPECT_GE(self_time(s, 0), 0.0);
  EXPECT_NE(trace.to_json().find("\"name\": \"inner\""), std::string::npos);
}

TEST(Trace, DisabledTraceRecordsNothing) {
  Trace trace{false};
  { const auto span = trace.scope("ignored"); }
  EXPECT_TRUE(trace.spans().empty());
}

TEST(Tally, AThrownCampaignCellCountsAsAFailure) {
  // One formable and one unformable RGG cell: on one thread the runner lets
  // the cell's exception escape, which the tally records as a failed attempt.
  const mgap::campaign::CampaignSpec spec = mgap::campaign::parse_campaign_spec(
      "campaign = thrown_cell\n"
      "topo.generator = rgg\n"
      "topo.nodes = 200\n"
      "topo.density = 8, 0.5\n"
      "duration = 5s\n"
      "seeds = 1\n");
  mgap::campaign::RunnerOptions options;
  options.threads = 1;
  options.progress = false;

  Tally tally;
  EXPECT_TRUE(tally.attempt("good job", [] { return true; }));
  EXPECT_FALSE(tally.attempt("campaign", [&] {
    (void)mgap::campaign::CampaignRunner{options}.run(spec);
    return true;
  }));
  EXPECT_FALSE(tally.attempt("wrong output", [] { return false; }));
  EXPECT_EQ(tally.attempted(), 3u);
  EXPECT_EQ(tally.failed(), 2u);
  EXPECT_DOUBLE_EQ(tally.fail_ratio(), 2.0 / 3.0);
}

TEST(Result, NonFiniteMetricMakesTheResultIncorrect) {
  Tally tally;
  (void)tally.attempt("ok", [] { return true; });
  const std::string good = result_json(true, tally, {{"wall_s", 1.5, "s"}});
  EXPECT_EQ(good,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": "
            "{\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}");
  const std::string bad = result_json(true, tally, {{"wall_s", std::nan(""), "s"}});
  EXPECT_NE(bad.find("\"correct\": false"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
