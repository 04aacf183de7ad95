#pragma once
// Differential harness: two ExperimentConfigs that must produce
// *bit-identical* results — every summary field, the full observability
// counter map, and optionally the campaign JSON a single-cell sweep would
// emit and the raw bytes of a .mgt trace stream.
//
// Use it for switches that must not change what a run computes (e.g. the
// arena allocator on/off): run_differential(a, b) runs both configs and
// reports every divergence as text, so the same fixture serves GTest
// (EXPECT_TRUE(r.ok) << r.divergence) and the choice-tape property engine
// (PROP_ASSERT(r.ok, r.divergence) lets the shrinker reduce a divergence to
// a minimal config).

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "campaign/writers.hpp"
#include "testbed/experiment.hpp"

namespace mgap::testhelpers {

struct OracleOptions {
  /// Also run each config as a single-cell campaign and compare the rendered
  /// JSON byte-for-byte (two extra experiment runs).
  bool compare_campaign_json{false};
  /// Also run each config with a .mgt trace attached and compare the trace
  /// files byte-for-byte (two extra experiment runs).
  bool compare_mgt_trace{false};
};

struct OracleResult {
  bool ok{true};
  /// Human-readable description of every field that diverged (empty when ok).
  std::string divergence;
  testbed::ExperimentSummary a;
  testbed::ExperimentSummary b;
  /// Error text when a run threw (random topo specs can fail construction
  /// deterministically — e.g. disconnected worlds). Both configs must throw
  /// the identical error; only one throwing is a divergence.
  std::string a_error;
  std::string b_error;
};

namespace detail {

inline void diverge(std::string& out, const std::string& line) {
  if (!out.empty()) out += '\n';
  out += line;
}

inline std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
inline std::string num(std::uint64_t v) { return std::to_string(v); }
inline std::string num(sim::Duration v) { return std::to_string(v.count_ns()) + "ns"; }
inline std::string num(const std::string& v) { return '"' + v + '"'; }

template <class T>
void cmp(std::string& out, const char* name, const T& a, const T& b) {
  if (a == b) return;
  diverge(out, std::string{name} + ": a=" + num(a) + " b=" + num(b));
}

inline void cmp_counters(std::string& out, const std::map<std::string, double>& a,
                         const std::map<std::string, double>& b) {
  for (const auto& [k, v] : a) {
    auto it = b.find(k);
    if (it == b.end()) {
      diverge(out, "counters[" + k + "]: a=" + num(v) + " b=<absent>");
    } else if (it->second != v) {
      diverge(out, "counters[" + k + "]: a=" + num(v) + " b=" + num(it->second));
    }
  }
  for (const auto& [k, v] : b) {
    if (a.find(k) == a.end()) {
      diverge(out, "counters[" + k + "]: a=<absent> b=" + num(v));
    }
  }
}

/// Compares every observable field of the two summaries.
inline void cmp_summaries(std::string& out, const testbed::ExperimentSummary& a,
                          const testbed::ExperimentSummary& b) {
#define MGAP_ORACLE_FIELD(f) cmp(out, #f, a.f, b.f)
  cmp(out, "topo_generator", a.topo_generator, b.topo_generator);
  MGAP_ORACLE_FIELD(topo_seed);
  MGAP_ORACLE_FIELD(topo_nodes);
  MGAP_ORACLE_FIELD(topo_mean_hops);
  MGAP_ORACLE_FIELD(topo_max_hops);
  MGAP_ORACLE_FIELD(sent);
  MGAP_ORACLE_FIELD(acked);
  MGAP_ORACLE_FIELD(coap_pdr);
  MGAP_ORACLE_FIELD(ll_pdr);
  MGAP_ORACLE_FIELD(conn_losses);
  MGAP_ORACLE_FIELD(reconnects);
  MGAP_ORACLE_FIELD(pktbuf_drops);
  MGAP_ORACLE_FIELD(link_down_drops);
  MGAP_ORACLE_FIELD(backpressure_drops);
  MGAP_ORACLE_FIELD(breaker_drops);
  MGAP_ORACLE_FIELD(coap_retransmissions);
  MGAP_ORACLE_FIELD(coap_timeouts);
  MGAP_ORACLE_FIELD(rtt_p50);
  MGAP_ORACLE_FIELD(rtt_p99);
  MGAP_ORACLE_FIELD(rtt_max);
  MGAP_ORACLE_FIELD(faults_injected);
  MGAP_ORACLE_FIELD(losses_injected);
  MGAP_ORACLE_FIELD(losses_emergent);
  MGAP_ORACLE_FIELD(link_downs);
  MGAP_ORACLE_FIELD(link_ups);
  MGAP_ORACLE_FIELD(reconnect_p50);
  MGAP_ORACLE_FIELD(reconnect_max);
  MGAP_ORACLE_FIELD(repair_to_delivery_p50);
  MGAP_ORACLE_FIELD(pdr_pre_fault);
  MGAP_ORACLE_FIELD(pdr_during_fault);
  MGAP_ORACLE_FIELD(pdr_post_fault);
#undef MGAP_ORACLE_FIELD
  cmp_counters(out, a.counters, b.counters);
}

inline std::string cmp_text(const char* what, const std::string& a,
                            const std::string& b) {
  if (a == b) return {};
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  std::ostringstream os;
  os << what << ": diverges at byte " << i << " (a " << a.size() << " bytes, b "
     << b.size() << " bytes)";
  if (i < a.size() || i < b.size()) {
    os << "; a[..]=\"" << a.substr(i, 40) << "\" b[..]=\"" << b.substr(i, 40) << '"';
  }
  return os.str();
}

/// Unique scratch path under the system temp dir (deleted by the caller).
inline std::string scratch_path(const char* stem) {
  static std::atomic<std::uint64_t> counter{0};
  const auto n = counter.fetch_add(1, std::memory_order_relaxed);
  auto p = std::filesystem::temp_directory_path() /
           ("mgap_oracle_" + std::to_string(::getpid()) + "_" + stem + "_" +
            std::to_string(n) + ".mgt");
  return p.string();
}

inline std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

inline testbed::ExperimentSummary run_one(testbed::ExperimentConfig cfg) {
  testbed::Experiment e{std::move(cfg)};
  e.run();
  return e.summary();
}

inline std::string campaign_json(const testbed::ExperimentConfig& cfg) {
  campaign::CampaignSpec spec;
  spec.name = "oracle";
  spec.base = cfg;
  campaign::RunnerOptions opts;
  opts.threads = 1;
  opts.progress = false;
  campaign::CampaignRunner runner{opts};
  // Fingerprint-stable form: no code-version metadata, like the benches.
  return campaign::to_json(runner.run(spec), /*include_code_version=*/false);
}

inline std::string trace_bytes(testbed::ExperimentConfig cfg, const char* stem) {
  const std::string path = scratch_path(stem);
  cfg.trace_file = path;
  (void)run_one(std::move(cfg));
  std::string bytes = slurp(path);
  std::error_code ec;
  std::filesystem::remove(path, ec);
  return bytes;
}

}  // namespace detail

/// Runs `cfg_a` and `cfg_b` and compares every observable output. Never
/// asserts itself — callers decide (EXPECT_TRUE(r.ok) << r.divergence, or
/// PROP_ASSERT(r.ok, r.divergence)).
inline OracleResult run_differential(const testbed::ExperimentConfig& cfg_a,
                                     const testbed::ExperimentConfig& cfg_b,
                                     const OracleOptions& opt = {}) {
  OracleResult r;
  try {
    r.a = detail::run_one(cfg_a);
  } catch (const std::exception& e) {
    r.a_error = e.what();
  }
  try {
    r.b = detail::run_one(cfg_b);
  } catch (const std::exception& e) {
    r.b_error = e.what();
  }
  if (r.a_error != r.b_error) {
    detail::diverge(r.divergence,
                    "error: a=\"" + r.a_error + "\" b=\"" + r.b_error + '"');
  }
  if (!r.a_error.empty()) {
    // Both sides failed identically: a valid (deterministic) outcome, and
    // there are no summaries/files to compare.
    r.ok = r.divergence.empty();
    return r;
  }
  detail::cmp_summaries(r.divergence, r.a, r.b);

  if (opt.compare_campaign_json) {
    const std::string ja = detail::campaign_json(cfg_a);
    const std::string jb = detail::campaign_json(cfg_b);
    if (auto d = detail::cmp_text("campaign JSON", ja, jb); !d.empty()) {
      detail::diverge(r.divergence, d);
    }
  }

  if (opt.compare_mgt_trace) {
    const std::string ta = detail::trace_bytes(cfg_a, "a");
    const std::string tb = detail::trace_bytes(cfg_b, "b");
    if (ta.empty()) detail::diverge(r.divergence, ".mgt trace: trace file a is empty");
    if (auto d = detail::cmp_text(".mgt trace", ta, tb); !d.empty()) {
      detail::diverge(r.divergence, d);
    }
  }

  r.ok = r.divergence.empty();
  return r;
}

}  // namespace mgap::testhelpers
