#pragma once
// Measurement helpers of the benchmark: wall clocks, quantiles, output
// fingerprints, in-memory spans and failure tallies. Nothing here touches the
// simulator, so the helpers are unit-tested on their own (tests/).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Wall seconds elapsed since `t0`, at the clock's native resolution.
[[nodiscard]] double seconds_since(Clock::time_point t0);

/// FNV-1a (64 bit) of `text`: the fingerprint of a deterministic output.
[[nodiscard]] std::uint64_t fnv1a(std::string_view text);
[[nodiscard]] std::string hex64(std::uint64_t value);

/// A quantile together with the number of samples it rests on.
struct Quantile {
  double value{0.0};
  std::size_t samples{0};
};

/// Linear-interpolated quantile, q in [0, 1] (q = 0.5 is the median; an even
/// sample count averages the middle pair). Zero samples give value 0.
[[nodiscard]] Quantile quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// One timed interval. Times are seconds since the trace was created.
struct Span {
  std::string name;
  double start{0.0};
  double end{0.0};
  int parent{-1};  // index of the enclosing span, -1 for a root
  int run{0};      // spans of one workload iteration share a run id
};

/// Spans kept in memory and written out when the benchmark ends. A disabled
/// trace records nothing and never reads the clock, so the untraced runs that
/// give the end-to-end metrics pay nothing for it.
class Trace {
 public:
  explicit Trace(bool enabled);

  /// Closes its span when it goes out of scope; nests under the innermost
  /// open scope.
  class Scope {
   public:
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    friend class Trace;
    Scope(Trace* trace, int index) : trace_{trace}, index_{index} {}
    Trace* trace_;
    int index_;
  };

  [[nodiscard]] Scope scope(std::string name);
  /// Starts a new run id for the spans that follow.
  void next_run() { ++run_; }

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// {"spans": [{"name", "start", "end", "parent", "run"}, ...]}
  [[nodiscard]] std::string to_json() const;

 private:
  int open(std::string name);
  void close(int index);

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int run_{0};
};

/// Duration of spans[index] minus the part of it its child spans cover.
[[nodiscard]] double self_time(const std::vector<Span>& spans, std::size_t index);

/// Span count, total and self time per span name, in first-seen order.
struct SpanTotal {
  std::string name;
  std::size_t count{0};
  double total{0.0};
  double self{0.0};
};
[[nodiscard]] std::vector<SpanTotal> totals_by_name(const std::vector<Span>& spans);

/// Attempted and failed units of work. A unit fails when it throws or when
/// its outputs miss their expected values; either way the run goes on with
/// the next unit, and the failure shows in fail_ratio().
class Tally {
 public:
  /// Runs `job` (returning whether its outputs were correct) as one attempt.
  template <typename Job>
  bool attempt(std::string_view what, Job&& job) {
    ++attempted_;
    bool ok = false;
    try {
      ok = job();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %.*s threw: %s\n", static_cast<int>(what.size()),
                   what.data(), e.what());
    } catch (...) {
      std::fprintf(stderr, "perfbench: %.*s threw\n", static_cast<int>(what.size()),
                   what.data());
    }
    if (!ok) ++failed_;
    return ok;
  }
  /// Records a failure that happened outside any attempt.
  void fail() {
    ++attempted_;
    ++failed_;
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] double fail_ratio() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) / static_cast<double>(attempted_);
  }

 private:
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
};

/// Compares one deterministic output against its expected value and reports
/// a mismatch on stderr. Returns whether they agree.
bool expect_equal(std::string_view what, double actual, double expected);

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

/// Shortest decimal that reads back as `value`.
[[nodiscard]] std::string format_number(double value);

/// The result line: {"correct", "attempted", "failed", "metrics"}. A metric
/// that is not a finite number makes the result incorrect.
[[nodiscard]] std::string result_json(bool correct, const Tally& tally,
                                      const std::vector<Metric>& metrics);

}  // namespace perfbench
