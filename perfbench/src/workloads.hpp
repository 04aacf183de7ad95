#pragma once
// The benchmark's workloads and its metric catalogue. Every number is taken
// from outside the simulator: the benchmark times its own calls into each
// module's public functions and reads the counters those modules expose.

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// The seed whose deterministic outputs are recorded; any other seed checks
/// invariants only.
inline constexpr std::uint64_t kDefaultSeed = 7;

struct WorkloadInfo {
  const char* name;
  const char* why;
};
[[nodiscard]] const std::vector<WorkloadInfo>& workloads();

/// One metric as listed in BENCHMARK.json, plus (per-layer metrics only) the
/// end-to-end metric and workload it should move.
struct MetricInfo {
  const char* name;
  const char* unit;
  const char* better;
  const char* moves;
};
[[nodiscard]] const std::vector<MetricInfo>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricInfo>& per_layer_metrics();

struct Options {
  std::string workload;
  std::uint64_t seed{kDefaultSeed};
  double seconds{10.0};
  bool trace{false};
  /// Directory for the result files the workloads write.
  std::string out_dir{"."};
};

struct Outcome {
  bool correct{false};
  Tally tally;
  /// The end-to-end metrics untraced, the per-layer metrics traced, in
  /// catalogue order.
  std::vector<Metric> metrics;
};

/// Runs one workload for about `options.seconds` of measured time. Spans go
/// to `trace` (recording only when it is enabled).
[[nodiscard]] Outcome run_workload(const Options& options, Trace& trace);

}  // namespace perfbench
