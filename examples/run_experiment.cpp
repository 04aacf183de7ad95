// run_experiment: the paper's experimentation framework in one binary
// (Appendix A.3). Takes a static experiment-description file, runs it, and
// emits the framework's three artifacts:
//   (i)  the effective experiment description (repeatability),
//   (ii) the raw results summary on stdout,
//   (iii) intermediate results (PDR timeline + RTT CDF) as CSV when an
//        output prefix is given.
//
// Usage:  run_experiment <config-file> [output-prefix]
// Sample descriptions live in examples/experiments/. MGAP_TIME_SCALE
// shortens the run, as in mgap_campaign; the description printed is the one
// that ran.

#include <cstdio>
#include <fstream>
#include <optional>

#include "testbed/config_file.hpp"
#include "testbed/report.hpp"

using namespace mgap;
using namespace mgap::testbed;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <config-file> [output-prefix]\n", argv[0]);
    std::fprintf(stderr, "sample configs: examples/experiments/*.conf\n");
    return 2;
  }

  ExperimentConfig cfg;
  try {
    cfg = load_experiment_config(argv[1]);
    cfg.duration = scaled_duration(cfg.duration);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  // Artifact (i): the effective static description.
  std::printf("# effective experiment description (%s)\n%s\n", argv[1],
              render_experiment_config(cfg).c_str());

  // Trace sinks (trace.file / trace.pcap) fail fast with a clear message —
  // on open (bad path) and on close (failed write) alike.
  std::optional<Experiment> e;
  try {
    e.emplace(cfg);
    e->run();
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 1;
  }

  // Artifact (ii): raw result summary.
  const auto s = e->summary();
  print_topology_line(s);
  print_summary_header();
  print_summary_row(argv[1], s);
  print_rtt_quantiles("RTT", e->metrics().rtt());
  std::printf("pktbuf drops: %llu, link-down drops: %llu\n",
              static_cast<unsigned long long>(s.pktbuf_drops),
              static_cast<unsigned long long>(s.link_down_drops));

  // Artifact (iii): intermediate results as CSV.
  if (argc >= 3) {
    const std::string prefix = argv[2];
    {
      std::ofstream out{prefix + "_pdr_timeline.csv"};
      out << "t_s,sent,acked,pdr\n";
      const auto timeline = e->metrics().timeline();
      for (std::size_t i = 0; i < timeline.size(); ++i) {
        const double t =
            static_cast<double>(static_cast<std::int64_t>(i)) *
            e->metrics().bucket_width().to_sec_f();
        out << t << ',' << timeline[i].sent << ',' << timeline[i].acked << ','
            << timeline[i].pdr() << '\n';
      }
    }
    {
      std::ofstream out{prefix + "_rtt_cdf.csv"};
      out << "rtt_ms,cdf\n";
      for (const auto& [rtt, frac] : e->metrics().rtt().cdf()) {
        out << rtt.to_ms_f() << ',' << frac << '\n';
      }
    }
    std::printf("wrote %s_pdr_timeline.csv and %s_rtt_cdf.csv\n", prefix.c_str(),
                prefix.c_str());
  }
  return 0;
}
