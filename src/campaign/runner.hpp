#pragma once
// Parallel campaign execution. Each (config, seed) cell is one independent
// Experiment: the Simulator, Metrics, worlds, and RNG streams are all
// per-instance and keyed by (config, seed), so cells are embarrassingly
// parallel and the campaign shards them across a work-stealing thread pool.
//
// Determinism contract: results are stored by cell index (config-major,
// seed-minor), never by completion order, and carry no scheduling-dependent
// data except the progress-only wall times — the JSON/CSV output of a
// campaign is byte-identical for 1 thread and N threads (tested).
//
// Thread-safety audit (satellite of PR 1): an Experiment owns every piece of
// mutable state it touches — Simulator (event queue + RNG streams), Metrics,
// BleWorld/Network154, per-node stacks — and the tree holds no globals or
// function-local statics; trace sinks are per-cell files (obs::Recorder owned
// by the Experiment), and the process-wide stdout/stderr are written only by
// the mutex-guarded progress reporter.
// `tests/test_campaign.cpp` pins this down by running concurrent Experiments
// against serial ones, and CI builds the campaign tests under
// -fsanitize=thread.

#include <cstdio>
#include <optional>
#include <vector>

#include "campaign/aggregate.hpp"
#include "campaign/spec.hpp"

namespace mgap::campaign {

struct RunnerOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  unsigned threads{0};
  /// Live progress (cells done, per-cell wall time, ETA) on `progress_stream`.
  bool progress{true};
  std::FILE* progress_stream{stderr};
  /// When set, every expanded cell's duration is scaled by it (60 s floor),
  /// so a `duration` axis shrinks like the base (testbed::apply_time_scale).
  std::optional<double> time_scale;
};

struct CampaignResult {
  std::string name;
  std::vector<std::uint64_t> seeds;
  std::vector<CellConfig> configs;
  /// One entry per (config, seed), config-major then seed-minor; aligned with
  /// `configs[i]` at cells[i * seeds.size() + j].
  std::vector<CellResult> cells;
  std::vector<ConfigAggregate> aggregates;
  double wall_seconds{0.0};
  unsigned threads_used{1};
};

class CampaignRunner {
 public:
  explicit CampaignRunner(RunnerOptions options = {});

  /// Expands the grid and runs every cell; blocks until the campaign is done.
  /// When cells throw, rethrows the exception of the lowest failing cell
  /// index — the one a serial run stops at — at every thread count.
  [[nodiscard]] CampaignResult run(const CampaignSpec& spec);

 private:
  RunnerOptions options_;
};

}  // namespace mgap::campaign
