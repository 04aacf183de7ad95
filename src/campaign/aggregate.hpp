#pragma once
// Cross-seed statistics: the campaign's answer to the related Bluetooth Mesh
// studies (Rondón et al., Aijaz et al.) reporting means with confidence
// intervals over many replications, where the paper's figures are single
// testbed runs. Each swept configuration aggregates its per-seed
// ExperimentSummary fields into mean / stddev / 95% CI and pools the RTT
// histograms for cross-seed quantiles.

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "testbed/experiment.hpp"
#include "testbed/metrics.hpp"

namespace mgap::campaign {

/// Sample statistics of one summary field across seeds. `ci95` is the
/// half-width of the two-sided Student-t 95% interval (0 for n < 2).
struct Stat {
  double mean{0.0};
  double stddev{0.0};
  double ci95{0.0};
  std::uint64_t n{0};
};

/// Two-sided 97.5% Student-t critical value for `df` degrees of freedom
/// (exact table for df <= 30, normal approximation above).
[[nodiscard]] double t_critical_95(std::uint64_t df);

/// Sample mean / Bessel-corrected stddev / t-based 95% CI half-width.
[[nodiscard]] Stat stat_of(const std::vector<double>& samples);

/// One fixed field of ExperimentSummary as a result column: its JSON/CSV
/// name, its value (durations in ms), whether it prints as an integer, and
/// whether configurations aggregate it across seeds. Adding a column means
/// one summary field plus one row of the table behind summary_columns().
struct SummaryColumn {
  std::string_view name;
  double (*get)(const testbed::ExperimentSummary&);
  bool integer;
  bool aggregated;
};

/// The per-cell columns that follow the topo_generator / topo_seed /
/// topo_nodes metadata, in output order; the aggregated ones, in the same
/// order, are the aggregate JSON fields and the CSV mean/ci95 pairs.
[[nodiscard]] std::span<const SummaryColumn> summary_columns();

/// Per-seed result of one (config, seed) cell.
struct CellResult {
  std::size_t config_index{0};
  std::uint64_t seed{0};
  testbed::ExperimentSummary summary;
  testbed::RttHistogram rtt;
  /// Host wall time of the cell, for the progress reporter only — it varies
  /// run to run and thread to thread, so it never reaches JSON/CSV output.
  double wall_seconds{0.0};
};

/// Cross-seed aggregate of one configuration.
struct ConfigAggregate {
  std::size_t config_index{0};
  /// Topology metadata from the cells (generator and node count are fixed per
  /// configuration).
  std::string topo_generator;
  std::uint64_t topo_nodes{0};
  /// One Stat per aggregated summary column, in summary_columns() order.
  std::vector<Stat> stats;
  /// All seeds' RTT samples pooled into one histogram; its quantiles are the
  /// across-replication distribution (vs. the mean of the per-seed RTT
  /// quantile columns).
  testbed::RttHistogram pooled_rtt;
  /// Observability counters (ExperimentSummary::counters) aggregated by name
  /// across seeds. std::map keeps the name order — and thus the JSON/CSV
  /// column order — deterministic.
  std::map<std::string, Stat> counters;

  /// The Stat of aggregated column `name`; throws std::out_of_range if no
  /// aggregated column has that name.
  [[nodiscard]] const Stat& stat(std::string_view name) const;
};

/// Aggregates the cells of configuration `config_index`. `cells` may contain
/// other configurations' results; they are skipped.
[[nodiscard]] ConfigAggregate aggregate_config(std::size_t config_index,
                                               const std::vector<CellResult>& cells);

}  // namespace mgap::campaign
