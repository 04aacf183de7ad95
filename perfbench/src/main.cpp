// mgap_perf: runs one benchmark workload and prints its result line.
//
//   mgap_perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--out DIR]
//   mgap_perf --describe
//
// The last line on stdout is {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics untraced, the per-layer metrics with --trace 1.
// A traced run also writes its spans to DIR/spans-<workload>.json and prints
// per-span total and self time, and what each per-layer metric should move,
// on stderr.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "campaign/writers.hpp"
#include "harness.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

std::string quoted(const char* text) { return std::string{"\""} + text + "\""; }

/// The catalogue as JSON, for checking BENCHMARK.json against the program.
void describe() {
  std::string out = "{\"workloads\": [";
  for (const WorkloadInfo& w : workloads()) {
    if (out.back() != '[') out += ", ";
    out += "{\"name\": " + quoted(w.name) + ", \"why\": " + quoted(w.why) + "}";
  }
  for (const auto& [key, list] : {std::pair{"end_to_end", &end_to_end_metrics()},
                                  std::pair{"per_layer", &per_layer_metrics()}}) {
    out += std::string{"], \""} + key + "\": [";
    for (const MetricInfo& m : *list) {
      if (out.back() != '[') out += ", ";
      out += "{\"name\": " + quoted(m.name) + ", \"unit\": " + quoted(m.unit) +
             ", \"better\": " + quoted(m.better) + ", \"moves\": " + quoted(m.moves) + "}";
    }
  }
  std::printf("%s]}\n", out.c_str());
}

void report_trace(const Trace& trace, const Outcome& outcome) {
  std::fprintf(stderr, "%-28s %7s %12s %12s\n", "span", "count", "total_s", "self_s");
  for (const SpanTotal& t : totals_by_name(trace.spans())) {
    std::fprintf(stderr, "%-28s %7zu %12.6f %12.6f\n", t.name.c_str(), t.count, t.total, t.self);
  }
  for (const Metric& m : outcome.metrics) {
    for (const MetricInfo& info : per_layer_metrics()) {
      if (m.name != info.name) continue;
      std::fprintf(stderr, "%-30s %16s %-6s moves %s\n", m.name.c_str(),
                   format_number(m.value).c_str(), m.unit.c_str(), info.moves);
    }
  }
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n"
               "       %s --describe\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--describe") == 0) {
      describe();
      return 0;
    }
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    if (std::strcmp(arg, "--workload") == 0) {
      options.workload = value;
    } else if (std::strcmp(arg, "--seed") == 0) {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(arg, "--seconds") == 0) {
      options.seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(arg, "--trace") == 0) {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(arg, "--out") == 0) {
      options.out_dir = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (options.workload.empty()) return usage(argv[0]);

  Trace trace{options.trace};
  Outcome outcome;
  try {
    outcome = run_workload(options, trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), e.what());
    outcome.tally.fail();
    outcome.correct = false;
  }
  if (options.trace) {
    mgap::campaign::write_file(options.out_dir + "/spans-" + options.workload + ".json",
                               trace.to_json());
    report_trace(trace, outcome);
  }
  std::fprintf(stderr, "perfbench: %s seed %llu: %llu attempted, %llu failed (fail_ratio %s)\n",
               options.workload.c_str(), static_cast<unsigned long long>(options.seed),
               static_cast<unsigned long long>(outcome.tally.attempted()),
               static_cast<unsigned long long>(outcome.tally.failed()),
               format_number(outcome.tally.fail_ratio()).c_str());
  std::printf("%s\n", result_json(outcome.correct, outcome.tally, outcome.metrics).c_str());
  return 0;
}
