#pragma once
// Structured campaign output: JSON (full per-seed detail + aggregates), CSV
// (one row per configuration, mean/ci95 columns — plot-ready error bars), and
// a fixed-width console table. All writers are deterministic functions of the
// cell results: no timestamps, no wall times, no thread counts — the same
// spec produces byte-identical files regardless of parallelism.

#include <string>

#include "campaign/runner.hpp"

namespace mgap::campaign {

/// `include_code_version` embeds the build fingerprint (sim::code_version())
/// as result metadata. perfbench passes false: its recorded FNV-1a
/// fingerprints must stay stable across commits.
[[nodiscard]] std::string to_json(const CampaignResult& result,
                                  bool include_code_version = true);
[[nodiscard]] std::string to_csv(const CampaignResult& result,
                                 bool include_code_version = true);

/// Writes `content` to `path`; throws std::runtime_error on failure.
void write_file(const std::string& path, const std::string& content);

/// Prints the aggregate table ("label  coapPDR ±ci  llPDR ±ci  p50 ...") to
/// stdout, one row per configuration.
void print_console_report(const CampaignResult& result);

}  // namespace mgap::campaign
