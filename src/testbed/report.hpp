#pragma once
// Console reporting helpers shared by the bench binaries and the runners:
// fixed-width tables, RTT quantiles, and MGAP_TIME_SCALE.

#include <cstdio>
#include <optional>
#include <string>

#include "testbed/experiment.hpp"
#include "testbed/metrics.hpp"

namespace mgap::testbed {

/// Prints "label: n p10 p50 p90 p99 max" quantiles of an RTT histogram.
void print_rtt_quantiles(const char* label, const RttHistogram& hist);

/// Prints one summary row (PDR, LL PDR, losses, RTT percentiles).
void print_summary_row(const char* label, const ExperimentSummary& s);
void print_summary_header();
/// One line of topology metadata (generator + seed, node count, hop stats).
void print_topology_line(const ExperimentSummary& s);

/// Formats "mean ±ci95" with the given precision, e.g. "0.9995 ±0.0003" —
/// the error-bar cell format shared by the multi-seed campaign tables.
[[nodiscard]] std::string format_mean_ci(double mean, double ci95, int precision = 4);

/// Reads MGAP_TIME_SCALE, the factor (0 < scale <= 1) that shrinks
/// experiment durations on constrained machines; nullopt when it is unset or
/// empty. Malformed, non-finite, or out-of-range values are rejected with a
/// warning on stderr, and nullopt (run unscaled) is returned.
[[nodiscard]] std::optional<double> time_scale();

/// Returns `d` scaled by time_scale(), with a floor of `min_d`.
[[nodiscard]] sim::Duration scaled_duration(sim::Duration d,
                                            sim::Duration min_d = sim::Duration::sec(60));

/// Scales `cfg.duration` by `scale` (60 s floor) and warns on stderr, naming
/// the key, for every fault.N at or after the scaled end: that fault never
/// fires. A non-empty `cell` (a campaign cell label) is named in the warning.
void apply_time_scale(ExperimentConfig& cfg, double scale, const std::string& cell = {});

/// apply_time_scale with time_scale(), when MGAP_TIME_SCALE is set.
void apply_time_scale(ExperimentConfig& cfg);

}  // namespace mgap::testbed
