#include "campaign/runner.hpp"

#include <atomic>
#include <chrono>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "testbed/report.hpp"

namespace mgap::campaign {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Per-cell trace path: "traces/run.mgt" -> "traces/run.cfg2.seed7.mgt".
/// Derived purely from (config_index, seed) — never from worker identity or
/// completion order — so a campaign's trace set is byte-identical across
/// --threads values and cells cannot clobber each other's files.
std::string cell_trace_path(const std::string& base, std::size_t config_index,
                            std::uint64_t seed) {
  const std::string tag =
      ".cfg" + std::to_string(config_index) + ".seed" + std::to_string(seed);
  const std::size_t slash = base.find_last_of('/');
  const std::size_t dot = base.find_last_of('.');
  const bool has_ext =
      dot != std::string::npos && (slash == std::string::npos || dot > slash);
  if (!has_ext) return base + tag;
  return base.substr(0, dot) + tag + base.substr(dot);
}

/// Per-worker deques of cell indices. A worker pops from the front of its own
/// deque and, when empty, steals from the back of the longest victim — the
/// classic split that keeps contention off the hot path while long cells
/// (e.g. the 100 ms-producer column) cannot strand work behind one thread.
class StealingQueue {
 public:
  StealingQueue(std::size_t cells, unsigned workers) : queues_(workers) {
    // Round-robin initial partition: adjacent cells usually share a config
    // (similar cost), so dealing them out interleaves cheap and expensive
    // columns across workers.
    for (std::size_t i = 0; i < cells; ++i) {
      queues_[i % workers].items.push_back(i);
    }
  }

  /// Returns false when no work is left anywhere.
  bool pop(unsigned worker, std::size_t& out) {
    {
      Shard& own = queues_[worker];
      std::lock_guard<std::mutex> lock{own.mutex};
      if (!own.items.empty()) {
        out = own.items.front();
        own.items.pop_front();
        return true;
      }
    }
    // Steal from the currently longest queue.
    while (true) {
      std::size_t victim = queues_.size();
      std::size_t best = 0;
      for (std::size_t v = 0; v < queues_.size(); ++v) {
        if (v == worker) continue;
        std::lock_guard<std::mutex> lock{queues_[v].mutex};
        if (queues_[v].items.size() > best) {
          best = queues_[v].items.size();
          victim = v;
        }
      }
      if (victim == queues_.size()) return false;
      std::lock_guard<std::mutex> lock{queues_[victim].mutex};
      if (queues_[victim].items.empty()) continue;  // lost the race, rescan
      out = queues_[victim].items.back();
      queues_[victim].items.pop_back();
      return true;
    }
  }

 private:
  struct Shard {
    std::mutex mutex;
    std::deque<std::size_t> items;
  };
  std::deque<Shard> queues_;  // deque: Shard is not movable
};

}  // namespace

CampaignRunner::CampaignRunner(RunnerOptions options) : options_{options} {}

CampaignResult CampaignRunner::run(const CampaignSpec& spec) {
  const auto t0 = Clock::now();

  CampaignResult result;
  result.name = spec.name;
  result.seeds = spec.effective_seeds();
  result.configs = expand_grid(spec);
  if (options_.time_scale) {
    for (CellConfig& c : result.configs) {
      testbed::apply_time_scale(c.config, *options_.time_scale, c.label());
    }
  }

  const std::size_t n_seeds = result.seeds.size();
  const std::size_t n_cells = result.configs.size() * n_seeds;
  result.cells.resize(n_cells);

  unsigned threads = options_.threads;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  threads = static_cast<unsigned>(
      std::min<std::size_t>(threads, std::max<std::size_t>(n_cells, 1)));
  result.threads_used = threads;

  StealingQueue queue{n_cells, threads};
  std::atomic<std::size_t> done{0};
  std::mutex progress_mutex;

  auto run_cell = [&](std::size_t cell_index) {
    const std::size_t config_index = cell_index / n_seeds;
    const std::uint64_t seed = result.seeds[cell_index % n_seeds];
    const auto cell_t0 = Clock::now();

    testbed::ExperimentConfig cfg = result.configs[config_index].config;
    cfg.seed = seed;
    if (!cfg.trace_file.empty()) {
      cfg.trace_file = cell_trace_path(cfg.trace_file, config_index, seed);
    }
    if (!cfg.trace_pcap.empty()) {
      cfg.trace_pcap = cell_trace_path(cfg.trace_pcap, config_index, seed);
    }
    testbed::Experiment experiment{cfg};
    experiment.run();

    CellResult& cell = result.cells[cell_index];
    cell.config_index = config_index;
    cell.seed = seed;
    cell.summary = experiment.summary();
    cell.rtt = experiment.metrics().rtt();
    cell.wall_seconds = seconds_since(cell_t0);

    const std::size_t k = done.fetch_add(1, std::memory_order_relaxed) + 1;
    if (options_.progress && options_.progress_stream != nullptr) {
      const double elapsed = seconds_since(t0);
      const double eta =
          elapsed / static_cast<double>(k) * static_cast<double>(n_cells - k);
      std::lock_guard<std::mutex> lock{progress_mutex};
      std::fprintf(options_.progress_stream,
                   "[%zu/%zu] %s seed=%llu  cell %.2fs  elapsed %.1fs  ETA %.1fs\n",
                   k, n_cells, result.configs[config_index].label().c_str(),
                   static_cast<unsigned long long>(seed), cell.wall_seconds, elapsed,
                   eta);
      std::fflush(options_.progress_stream);
    }
  };

  if (threads <= 1) {
    for (std::size_t i = 0; i < n_cells; ++i) run_cell(i);
  } else {
    // A cell that throws must not take the process down (an exception
    // escaping a std::thread calls std::terminate). Workers keep the failure
    // of the lowest failing cell index and skip cells above it; after the
    // join it is rethrown — the cell a serial run stops at, so the error is
    // the same at every thread count.
    std::mutex failure_mutex;
    std::size_t first_failed = n_cells;
    std::exception_ptr failure;
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        std::size_t cell_index;
        while (queue.pop(w, cell_index)) {
          {
            std::lock_guard<std::mutex> lock{failure_mutex};
            if (cell_index > first_failed) continue;
          }
          try {
            run_cell(cell_index);
          } catch (...) {
            std::lock_guard<std::mutex> lock{failure_mutex};
            if (cell_index < first_failed) {
              first_failed = cell_index;
              failure = std::current_exception();
            }
          }
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    if (failure) std::rethrow_exception(failure);
  }

  result.aggregates.reserve(result.configs.size());
  for (std::size_t i = 0; i < result.configs.size(); ++i) {
    result.aggregates.push_back(aggregate_config(i, result.cells));
  }
  result.wall_seconds = seconds_since(t0);
  return result;
}

}  // namespace mgap::campaign
