#pragma once
// Campaign descriptions: a declarative sweep over ExperimentConfig space.
//
// A CampaignSpec is a base configuration plus a parameter grid (one axis per
// swept key, expanded as a cross product) and a seed list. It is the batch
// twin of the paper's static experiment description (Appendix A.3): the file
// format is the testbed's `key = value` syntax with three extensions —
// comma-separated values turn a key into a sweep axis, `a | b = 1 | 2, 3 | 4`
// zips several keys into one axis whose steps set them together, and
// `seeds = 1..10` declares the replication seeds. Figure 15's 60-cell sweep,
// with supervision tied to the interval and jitter to the producer interval,
// becomes (examples/experiments/fig15_grid.campaign):
//
//   conn_interval | supervision_timeout = 25ms | 2s, 500ms | 4s, ...
//   producer_interval | producer_jitter = 100ms | 50ms, 1s | 500ms, ...
//   seeds = 1..5

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "testbed/config_file.hpp"
#include "testbed/experiment.hpp"

namespace mgap::campaign {

struct CampaignSpec {
  /// One grid dimension. A plain axis has one key; a zip axis has several,
  /// and each step assigns all of them at once.
  struct Axis {
    std::vector<std::string> keys;  // ExperimentConfig file keys
    /// One tuple per step, in sweep order: keys.size() file-syntax values.
    std::vector<std::vector<std::string>> values;
  };

  std::string name{"campaign"};
  testbed::ExperimentConfig base;
  /// Axes in declaration order; the grid is their cross product, first axis
  /// slowest (row-major), matching how the paper tables group rows.
  std::vector<Axis> axes;
  /// Replication seeds; when empty the base config's single seed is used.
  std::vector<std::uint64_t> seeds;

  /// Number of distinct configurations (product of axis sizes, >= 1).
  [[nodiscard]] std::size_t grid_size() const;
  /// grid_size() x number of seeds: the independent Experiment runs.
  [[nodiscard]] std::size_t cell_count() const;
  [[nodiscard]] std::vector<std::uint64_t> effective_seeds() const;
};

/// One point of the expanded grid (seed not yet applied).
struct CellConfig {
  std::size_t config_index{0};
  /// The axis assignment that produced this cell, in axis order (a zip axis
  /// contributes one pair per key).
  std::vector<std::pair<std::string, std::string>> assignment;
  testbed::ExperimentConfig config;

  /// "conn_interval=75ms producer_interval=1s" (empty for a gridless spec).
  [[nodiscard]] std::string label() const;
};

/// Expands the cross product of the spec's axes over its base configuration
/// and runs testbed::validate on every cell (for a spec without axes, the
/// base). Throws std::runtime_error if an axis value is malformed for its key
/// or a cell fails validation.
[[nodiscard]] std::vector<CellConfig> expand_grid(const CampaignSpec& spec);

/// Parses "1..10" (inclusive range), "1, 2, 7" (list), or a single seed.
/// Throws std::runtime_error on malformed input or an empty result.
[[nodiscard]] std::vector<std::uint64_t> parse_seed_list(std::string_view text);

/// Parses a campaign description (see header comment for the format).
/// Scalar keys configure the base in file order (a repeated key's last value
/// wins, as in a `.conf`); comma-separated keys become sweep axes in file
/// order; `campaign = <name>` and `seeds = ...` are campaign-level.
/// Throws std::runtime_error on a malformed value, a zip tuple whose size
/// differs from its key count, or a key swept by more than one axis.
[[nodiscard]] CampaignSpec parse_campaign_spec(std::string_view text);

/// Loads and parses a campaign description file.
[[nodiscard]] CampaignSpec load_campaign_spec(const std::string& path);

}  // namespace mgap::campaign
