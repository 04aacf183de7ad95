// run_experiment: the paper's experimentation framework in one binary
// (Appendix A.3). Takes a static experiment-description file, runs it, and
// emits the framework's three artifacts:
//   (i)  the effective experiment description (repeatability),
//   (ii) the raw results summary on stdout,
//   (iii) intermediate results as CSV when an output prefix is given: the
//        PDR timeline, the RTT CDF, per-producer PDR and the
//        connection-loss timeline.
//
// Usage:  run_experiment <config-file> [output-prefix]
// Sample descriptions live in examples/experiments/. MGAP_TIME_SCALE
// shortens the run, as in mgap_campaign; the description printed is the one
// that ran.

#include <cstdio>
#include <filesystem>
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
    apply_time_scale(cfg);
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
  print_summary_row(std::filesystem::path{argv[1]}.stem().c_str(), s);
  print_rtt_quantiles("RTT", e->metrics().rtt());
  std::printf("pktbuf drops: %llu, link-down drops: %llu\n",
              static_cast<unsigned long long>(s.pktbuf_drops),
              static_cast<unsigned long long>(s.link_down_drops));
  if (const ble::BleWorld* world = e->ble_world()) {
    ble::LinkStats ll;
    for (const ble::LinkStats* ls : world->all_link_stats()) {
      ll.events_ok += ls->events_ok;
      ll.events_missed += ls->events_missed;
      ll.events_aborted += ls->events_aborted;
      ll.pdu_tx += ls->pdu_tx;
      ll.pdu_retrans += ls->pdu_retrans;
    }
    std::printf("link layer: events ok/missed/aborted %llu/%llu/%llu, "
                "PDUs tx/retrans %llu/%llu\n",
                static_cast<unsigned long long>(ll.events_ok),
                static_cast<unsigned long long>(ll.events_missed),
                static_cast<unsigned long long>(ll.events_aborted),
                static_cast<unsigned long long>(ll.pdu_tx),
                static_cast<unsigned long long>(ll.pdu_retrans));
  }
  if (s.faults_injected > 0) {
    std::printf("recovery: faults injected %llu, losses injected/emergent %llu/%llu, "
                "link downs/ups %llu/%llu, reconnect p50/max %.1f/%.1f ms, "
                "repair-to-delivery p50 %.1f ms, PDR pre/during/post fault "
                "%.4f/%.4f/%.4f\n",
                static_cast<unsigned long long>(s.faults_injected),
                static_cast<unsigned long long>(s.losses_injected),
                static_cast<unsigned long long>(s.losses_emergent),
                static_cast<unsigned long long>(s.link_downs),
                static_cast<unsigned long long>(s.link_ups), s.reconnect_p50.to_ms_f(),
                s.reconnect_max.to_ms_f(), s.repair_to_delivery_p50.to_ms_f(),
                s.pdr_pre_fault, s.pdr_during_fault, s.pdr_post_fault);
  }

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
    {
      // Hops come from the wired tree; a self-forming world has none.
      const Topology& topo = e->config().topology;
      std::ofstream out{prefix + "_producers.csv"};
      out << "node,hops,sent,acked,pdr\n";
      for (const NodeId p : topo.producers()) {
        PdrBucket total;
        if (const auto* timeline = e->metrics().timeline_of(p)) {
          for (const PdrBucket& b : *timeline) {
            total.sent += b.sent;
            total.acked += b.acked;
          }
        }
        out << p << ',';
        if (topo.wired()) out << topo.hops(p);
        out << ',' << total.sent << ',' << total.acked << ',' << total.pdr() << '\n';
      }
    }
    {
      std::ofstream out{prefix + "_conn_losses.csv"};
      out << "t_s,node\n";
      for (const auto& [t, node] : e->metrics().conn_losses()) {
        out << t.to_sec_f() << ',' << node << '\n';
      }
    }
    std::printf("wrote %s_{pdr_timeline,rtt_cdf,producers,conn_losses}.csv\n",
                prefix.c_str());
  }
  return 0;
}
