#include "campaign/writers.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "sim/build_info.hpp"
#include "sim/number.hpp"
#include "testbed/report.hpp"

namespace mgap::campaign {

namespace {

// Shortest round-trip decimal form: deterministic across runs and thread
// counts, and what the byte-identity test relies on.
using sim::format_real;

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_stat(const Stat& s) {
  return "{\"mean\": " + format_real(s.mean) + ", \"stddev\": " + format_real(s.stddev) +
         ", \"ci95\": " + format_real(s.ci95) + ", \"n\": " + std::to_string(s.n) + "}";
}

void csv_stat(std::ostringstream& out, const Stat& s) {
  out << "," << format_real(s.mean) << "," << format_real(s.ci95);
}

/// Sorted union of observability counter names across all aggregates. The
/// CSV needs one fixed column set even when configs differ (e.g. a radio
/// axis where only BLE cells report radio.* counters).
std::vector<std::string> counter_columns(const CampaignResult& result) {
  std::set<std::string> names;
  for (const ConfigAggregate& agg : result.aggregates) {
    for (const auto& [name, stat] : agg.counters) names.insert(name);
  }
  return {names.begin(), names.end()};
}

}  // namespace

std::string to_json(const CampaignResult& result, bool include_code_version) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"campaign\": \"" << json_escape(result.name) << "\",\n";
  if (include_code_version) {
    out << "  \"code_version\": \"" << json_escape(sim::code_version()) << "\",\n";
  }
  out << "  \"seeds\": [";
  for (std::size_t i = 0; i < result.seeds.size(); ++i) {
    if (i != 0) out << ", ";
    out << result.seeds[i];
  }
  out << "],\n";
  out << "  \"grid\": [\n";
  const std::size_t n_seeds = result.seeds.size();
  for (std::size_t i = 0; i < result.configs.size(); ++i) {
    const CellConfig& config = result.configs[i];
    out << "    {\n";
    out << "      \"index\": " << i << ",\n";
    out << "      \"assignment\": {";
    for (std::size_t a = 0; a < config.assignment.size(); ++a) {
      if (a != 0) out << ", ";
      out << "\"" << json_escape(config.assignment[a].first) << "\": \""
          << json_escape(config.assignment[a].second) << "\"";
    }
    out << "},\n";
    out << "      \"cells\": [\n";
    for (std::size_t j = 0; j < n_seeds; ++j) {
      const CellResult& cell = result.cells[i * n_seeds + j];
      const testbed::ExperimentSummary& s = cell.summary;
      out << "        {\"seed\": " << cell.seed
          << ", \"topo_generator\": \"" << json_escape(s.topo_generator) << "\""
          << ", \"topo_seed\": " << s.topo_seed
          << ", \"topo_nodes\": " << s.topo_nodes;
      for (const SummaryColumn& col : summary_columns()) {
        const double v = col.get(s);
        out << ", \"" << col.name << "\": ";
        if (col.integer) {
          out << static_cast<std::uint64_t>(v);
        } else {
          out << format_real(v);
        }
      }
      out << ", \"counters\": {";
      std::size_t c = 0;
      for (const auto& [name, v] : s.counters) {
        if (c++ != 0) out << ", ";
        out << "\"" << json_escape(name) << "\": " << format_real(v);
      }
      out << "}}" << (j + 1 < n_seeds ? "," : "") << "\n";
    }
    out << "      ],\n";
    out << "      \"aggregate\": {\n";
    const ConfigAggregate& agg = result.aggregates[i];
    out << "        \"topo_generator\": \"" << json_escape(agg.topo_generator)
        << "\",\n";
    out << "        \"topo_nodes\": " << agg.topo_nodes << ",\n";
    std::size_t k = 0;
    for (const SummaryColumn& col : summary_columns()) {
      if (col.aggregated) {
        out << "        \"" << col.name << "\": " << json_stat(agg.stats[k++]) << ",\n";
      }
    }
    out << "        \"counters\": {";
    std::size_t c = 0;
    for (const auto& [name, stat] : agg.counters) {
      if (c++ != 0) out << ", ";
      out << "\"" << json_escape(name) << "\": " << json_stat(stat);
    }
    out << "},\n";
    out << "        \"pooled_rtt\": {\"count\": " << agg.pooled_rtt.count()
        << ", \"p50_ms\": " << format_real(agg.pooled_rtt.quantile(0.50).to_ms_f())
        << ", \"p90_ms\": " << format_real(agg.pooled_rtt.quantile(0.90).to_ms_f())
        << ", \"p99_ms\": " << format_real(agg.pooled_rtt.quantile(0.99).to_ms_f())
        << ", \"max_ms\": " << format_real(agg.pooled_rtt.max_seen().to_ms_f())
        << "}\n";
    out << "      }\n";
    out << "    }" << (i + 1 < result.configs.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  return out.str();
}

std::string to_csv(const CampaignResult& result, bool include_code_version) {
  std::ostringstream out;
  if (include_code_version) {
    out << "# code_version = " << sim::code_version() << "\n";
  }
  const std::vector<std::string> counter_cols = counter_columns(result);
  out << "config_index";
  // Axis columns come from the first config's assignment keys (identical for
  // every config by construction).
  if (!result.configs.empty()) {
    for (const auto& [key, value] : result.configs.front().assignment) {
      out << "," << key;
    }
  }
  out << ",seeds,topo_generator,topo_nodes";
  for (const SummaryColumn& col : summary_columns()) {
    if (col.aggregated) out << "," << col.name << "_mean," << col.name << "_ci95";
  }
  out << ",pooled_rtt_p50_ms,pooled_rtt_p99_ms";
  for (const std::string& name : counter_cols) {
    out << "," << name << "_mean," << name << "_ci95";
  }
  out << "\n";
  for (std::size_t i = 0; i < result.configs.size(); ++i) {
    const ConfigAggregate& agg = result.aggregates[i];
    out << i;
    for (const auto& [key, value] : result.configs[i].assignment) {
      out << "," << value;
    }
    out << "," << result.seeds.size();
    out << "," << agg.topo_generator << "," << agg.topo_nodes;
    for (const Stat& stat : agg.stats) csv_stat(out, stat);
    out << "," << format_real(agg.pooled_rtt.quantile(0.50).to_ms_f()) << ","
        << format_real(agg.pooled_rtt.quantile(0.99).to_ms_f());
    for (const std::string& name : counter_cols) {
      const auto it = agg.counters.find(name);
      csv_stat(out, it == agg.counters.end() ? Stat{} : it->second);
    }
    out << "\n";
  }
  return out.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out{path, std::ios::binary};
  if (!out) throw std::runtime_error{"campaign: cannot write " + path};
  out << content;
  if (!out) throw std::runtime_error{"campaign: write failed for " + path};
}

void print_console_report(const CampaignResult& result) {
  std::printf("campaign '%s': %zu configuration(s) x %zu seed(s)\n\n",
              result.name.c_str(), result.configs.size(), result.seeds.size());
  std::vector<std::string> labels;
  int width = static_cast<int>(std::string_view{"configuration"}.size());
  for (const CellConfig& config : result.configs) {
    labels.push_back(config.assignment.empty() ? "(base)" : config.label());
    width = std::max(width, static_cast<int>(labels.back().size()));
  }
  std::printf("%-*s %18s %18s %16s %16s %12s\n", width, "configuration", "coapPDR", "llPDR",
              "p50[ms]", "p99[ms]", "losses");
  for (std::size_t i = 0; i < result.configs.size(); ++i) {
    const ConfigAggregate& agg = result.aggregates[i];
    const auto cell = [&agg](std::string_view name, int decimals) {
      const Stat& s = agg.stat(name);
      return testbed::format_mean_ci(s.mean, s.ci95, decimals);
    };
    std::printf("%-*s %18s %18s %16s %16s %12s\n", width, labels[i].c_str(),
                cell("coap_pdr", 4).c_str(), cell("ll_pdr", 4).c_str(),
                cell("rtt_p50_ms", 1).c_str(), cell("rtt_p99_ms", 1).c_str(),
                cell("conn_losses", 1).c_str());
  }
}

}  // namespace mgap::campaign
