#include "testbed/report.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace mgap::testbed {

void print_rtt_quantiles(const char* label, const RttHistogram& hist) {
  std::printf("%-34s n=%9llu  p10=%8.1fms p50=%8.1fms p90=%8.1fms p99=%8.1fms max=%9.1fms\n",
              label, static_cast<unsigned long long>(hist.count()),
              hist.quantile(0.10).to_ms_f(), hist.quantile(0.50).to_ms_f(),
              hist.quantile(0.90).to_ms_f(), hist.quantile(0.99).to_ms_f(),
              hist.max_seen().to_ms_f());
}

void print_topology_line(const ExperimentSummary& s) {
  // Generated worlds carry the placement seed (repeatability); static
  // topologies report "static:<name>" with seed 0.
  std::printf("topology: %s (seed %llu), %llu nodes, mean hops %.2f, max hops %llu\n",
              s.topo_generator.c_str(),
              static_cast<unsigned long long>(s.topo_seed),
              static_cast<unsigned long long>(s.topo_nodes), s.topo_mean_hops,
              static_cast<unsigned long long>(s.topo_max_hops));
}

void print_summary_header() {
  std::printf("%-38s %9s %9s %8s %8s %7s %7s %9s %9s %9s\n", "configuration", "sent",
              "acked", "coapPDR", "llPDR", "losses", "reconn", "p50[ms]", "p99[ms]",
              "max[ms]");
}

void print_summary_row(const char* label, const ExperimentSummary& s) {
  std::printf("%-38s %9llu %9llu %8.4f %8.4f %7llu %7llu %9.1f %9.1f %9.1f\n", label,
              static_cast<unsigned long long>(s.sent),
              static_cast<unsigned long long>(s.acked), s.coap_pdr, s.ll_pdr,
              static_cast<unsigned long long>(s.conn_losses),
              static_cast<unsigned long long>(s.reconnects), s.rtt_p50.to_ms_f(),
              s.rtt_p99.to_ms_f(), s.rtt_max.to_ms_f());
}

std::string format_mean_ci(double mean, double ci95, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f ±%.*f", precision, mean, precision, ci95);
  return std::string{buf};
}

std::optional<double> time_scale() {
  const char* env = std::getenv("MGAP_TIME_SCALE");
  if (env == nullptr || *env == '\0') return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const double scale = std::strtod(env, &end);
  // Reject anything that is not a clean finite number in (0, 1]: a typo'd
  // scale silently running the full-length experiment (or a zero/negative one
  // degenerating to the floor) is much harder to notice than a warning.
  if (end == env || *end != '\0' || errno == ERANGE || !std::isfinite(scale) ||
      scale <= 0.0 || scale > 1.0) {
    std::fprintf(stderr,
                 "warning: ignoring MGAP_TIME_SCALE='%s' (want a number with "
                 "0 < scale <= 1); running unscaled\n",
                 env);
    return std::nullopt;
  }
  return scale;
}

sim::Duration scaled_duration(sim::Duration d, sim::Duration min_d) {
  const std::optional<double> scale = time_scale();
  return scale ? sim::max(d.scaled(*scale), min_d) : d;
}

void apply_time_scale(ExperimentConfig& cfg, double scale, const std::string& cell) {
  const sim::Duration full = cfg.duration;
  cfg.duration = sim::max(full.scaled(scale), sim::Duration::sec(60));
  if (cfg.duration == full) return;
  const std::string run = cell.empty() ? "the run" : "cell '" + cell + "'";
  for (const auto& [key, ev] : cfg.faults) {
    if (ev.at.since_origin() >= cfg.duration) {
      std::fprintf(stderr,
                   "warning: MGAP_TIME_SCALE ends %s at %s, before %s (at=%s) "
                   "fires\n",
                   run.c_str(), cfg.duration.str().c_str(), key.c_str(),
                   ev.at.since_origin().str().c_str());
    }
  }
}

void apply_time_scale(ExperimentConfig& cfg) {
  if (const std::optional<double> scale = time_scale()) apply_time_scale(cfg, *scale);
}

}  // namespace mgap::testbed
