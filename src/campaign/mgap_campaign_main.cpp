// mgap_campaign — run a declarative experiment sweep from a campaign file.
//
//   mgap_campaign spec.conf [--threads N] [--json out.json] [--csv out.csv]
//                           [--quiet] [--dry-run]
//
// The spec is the testbed `key = value` format plus sweep syntax: a
// comma-separated value list turns the key into a grid axis, `seeds = 1..10`
// declares the replication seeds (see examples/experiments/*.campaign).
// Cells run in parallel across threads; output is byte-identical for any
// thread count. MGAP_TIME_SCALE shortens every cell's duration, a `duration`
// axis included.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "campaign/writers.hpp"
#include "testbed/report.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <spec.campaign> [--threads N] [--json PATH] [--csv PATH] "
               "[--quiet] [--dry-run]\n",
               argv0);
  return 2;
}

/// Strict positive-integer option parse: the whole token must be digits and
/// the value >= 1. atoi's silent 0 on garbage ("--threads x") used to fall
/// back to auto-detection instead of failing.
bool parse_positive(const char* text, unsigned& out) {
  unsigned v{};
  const char* end = text + std::strlen(text);
  const auto res = std::from_chars(text, end, v);
  if (res.ec != std::errc{} || res.ptr != end || v < 1) return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path;
  std::string json_path;
  std::string csv_path;
  unsigned threads = 0;
  bool quiet = false;
  bool dry_run = false;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], arg);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--threads") == 0) {
      const char* value = next_value();
      if (!parse_positive(value, threads)) {
        std::fprintf(stderr,
                     "%s: --threads wants a positive integer, got '%s'\n",
                     argv[0], value);
        return 2;
      }
    } else if (std::strcmp(arg, "--json") == 0) {
      json_path = next_value();
    } else if (std::strcmp(arg, "--csv") == 0) {
      csv_path = next_value();
    } else if (std::strcmp(arg, "--quiet") == 0) {
      quiet = true;
    } else if (std::strcmp(arg, "--dry-run") == 0) {
      dry_run = true;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      return usage(argv[0]);
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "%s: unknown option %s\n", argv[0], arg);
      return usage(argv[0]);
    } else if (spec_path.empty()) {
      spec_path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (spec_path.empty()) return usage(argv[0]);

  try {
    const mgap::campaign::CampaignSpec spec = mgap::campaign::load_campaign_spec(spec_path);
    const auto configs = mgap::campaign::expand_grid(spec);
    if (dry_run) {
      std::printf("campaign '%s': %zu configuration(s) x %zu seed(s) = %zu cell(s)\n",
                  spec.name.c_str(), configs.size(), spec.effective_seeds().size(),
                  spec.cell_count());
      for (const auto& config : configs) {
        std::printf("  [%zu] %s\n", config.config_index,
                    config.label().empty() ? "(base)" : config.label().c_str());
      }
      return 0;
    }

    mgap::campaign::RunnerOptions options;
    options.threads = threads;
    options.progress = !quiet;
    // MGAP_TIME_SCALE shortens every cell, as run_experiment does.
    options.time_scale = mgap::testbed::time_scale();
    mgap::campaign::CampaignRunner runner{options};
    const mgap::campaign::CampaignResult result = runner.run(spec);

    if (!quiet) {
      std::fprintf(stderr, "campaign done: %zu cell(s) on %u thread(s) in %.1fs\n",
                   result.cells.size(), result.threads_used, result.wall_seconds);
    }
    mgap::campaign::print_console_report(result);
    if (!json_path.empty()) {
      mgap::campaign::write_file(json_path, mgap::campaign::to_json(result));
      if (!quiet) std::fprintf(stderr, "wrote %s\n", json_path.c_str());
    }
    if (!csv_path.empty()) {
      mgap::campaign::write_file(csv_path, mgap::campaign::to_csv(result));
      if (!quiet) std::fprintf(stderr, "wrote %s\n", csv_path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 1;
  }
}
