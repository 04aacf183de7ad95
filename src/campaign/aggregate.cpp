#include "campaign/aggregate.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace mgap::campaign {

namespace {

using S = testbed::ExperimentSummary;

template <auto M>
using FieldType = std::remove_cvref_t<decltype(std::declval<S>().*M)>;

/// Counts stay far below 2^53, so integer fields read exactly as doubles.
template <auto M>
double read(const S& s) {
  if constexpr (std::is_same_v<FieldType<M>, sim::Duration>) {
    return (s.*M).to_ms_f();
  } else {
    return static_cast<double>(s.*M);
  }
}

template <auto M>
constexpr SummaryColumn column(std::string_view name, bool aggregated) {
  return {name, read<M>, std::is_integral_v<FieldType<M>>, aggregated};
}

constexpr bool kAggregated = true;
constexpr bool kPerCell = false;  // per-cell JSON only

constexpr SummaryColumn kColumns[] = {
    column<&S::topo_mean_hops>("topo_mean_hops", kAggregated),
    column<&S::topo_max_hops>("topo_max_hops", kAggregated),
    column<&S::sent>("sent", kAggregated),
    column<&S::acked>("acked", kPerCell),
    column<&S::coap_pdr>("coap_pdr", kAggregated),
    column<&S::ll_pdr>("ll_pdr", kAggregated),
    column<&S::conn_losses>("conn_losses", kAggregated),
    column<&S::reconnects>("reconnects", kAggregated),
    column<&S::pktbuf_drops>("pktbuf_drops", kAggregated),
    column<&S::link_down_drops>("link_down_drops", kPerCell),
    column<&S::backpressure_drops>("backpressure_drops", kAggregated),
    column<&S::breaker_drops>("breaker_drops", kAggregated),
    column<&S::coap_retransmissions>("coap_retransmissions", kPerCell),
    column<&S::coap_timeouts>("coap_timeouts", kPerCell),
    column<&S::rtt_p50>("rtt_p50_ms", kAggregated),
    column<&S::rtt_p99>("rtt_p99_ms", kAggregated),
    column<&S::rtt_max>("rtt_max_ms", kPerCell),
    column<&S::faults_injected>("faults_injected", kPerCell),
    column<&S::losses_injected>("losses_injected", kAggregated),
    column<&S::losses_emergent>("losses_emergent", kPerCell),
    column<&S::link_downs>("link_downs", kPerCell),
    column<&S::link_ups>("link_ups", kPerCell),
    column<&S::reconnect_p50>("reconnect_p50_ms", kAggregated),
    column<&S::reconnect_max>("reconnect_max_ms", kPerCell),
    column<&S::repair_to_delivery_p50>("repair_p50_ms", kAggregated),
    column<&S::pdr_pre_fault>("pdr_pre_fault", kPerCell),
    column<&S::pdr_during_fault>("pdr_during_fault", kPerCell),
    column<&S::pdr_post_fault>("pdr_post_fault", kAggregated),
};

constexpr std::size_t kAggregatedCount =
    static_cast<std::size_t>(std::ranges::count_if(kColumns, &SummaryColumn::aggregated));

}  // namespace

std::span<const SummaryColumn> summary_columns() { return kColumns; }

const Stat& ConfigAggregate::stat(std::string_view name) const {
  std::size_t i = 0;
  for (const SummaryColumn& col : kColumns) {
    if (!col.aggregated) continue;
    if (col.name == name) return stats.at(i);
    ++i;
  }
  throw std::out_of_range{"campaign: no aggregated column '" + std::string(name) + "'"};
}

double t_critical_95(std::uint64_t df) {
  // Two-sided 95% (upper 2.5% point). Abramowitz & Stegun table 26.10.
  static constexpr double kTable[] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (df == 0) return 0.0;
  if (df <= 30) return kTable[df - 1];
  return 1.960;
}

Stat stat_of(const std::vector<double>& samples) {
  Stat s;
  s.n = samples.size();
  if (samples.empty()) return s;
  double sum = 0.0;
  for (const double x : samples) sum += x;
  s.mean = sum / static_cast<double>(s.n);
  if (s.n < 2) return s;
  double ss = 0.0;
  for (const double x : samples) ss += (x - s.mean) * (x - s.mean);
  s.stddev = std::sqrt(ss / static_cast<double>(s.n - 1));
  s.ci95 = t_critical_95(s.n - 1) * s.stddev / std::sqrt(static_cast<double>(s.n));
  return s;
}

ConfigAggregate aggregate_config(std::size_t config_index,
                                 const std::vector<CellResult>& cells) {
  ConfigAggregate agg;
  agg.config_index = config_index;
  std::array<std::vector<double>, kAggregatedCount> samples;
  std::map<std::string, std::vector<double>> counter_samples;
  for (const CellResult& cell : cells) {
    if (cell.config_index != config_index) continue;
    const S& s = cell.summary;
    if (agg.topo_generator.empty()) {
      agg.topo_generator = s.topo_generator;
      agg.topo_nodes = s.topo_nodes;
    }
    std::size_t i = 0;
    for (const SummaryColumn& col : kColumns) {
      if (col.aggregated) samples[i++].push_back(col.get(s));
    }
    for (const auto& [name, v] : s.counters) counter_samples[name].push_back(v);
    agg.pooled_rtt.merge(cell.rtt);
  }
  for (const std::vector<double>& v : samples) agg.stats.push_back(stat_of(v));
  for (const auto& [name, v] : counter_samples) agg.counters[name] = stat_of(v);
  return agg;
}

}  // namespace mgap::campaign
