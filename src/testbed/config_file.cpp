#include "testbed/config_file.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "topo/spec.hpp"

namespace mgap::testbed {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

std::optional<double> parse_number(std::string_view s) {
  double v{};
  const auto* end = s.data() + s.size();
  const auto res = std::from_chars(s.data(), end, v);
  if (res.ec != std::errc{} || res.ptr != end) return std::nullopt;
  return v;
}

bool parse_bool(std::string_view v, const std::string& key) {
  if (v == "true" || v == "yes" || v == "1") return true;
  if (v == "false" || v == "no" || v == "0") return false;
  throw std::runtime_error{"config: bad boolean for '" + key + "'"};
}

/// "65:85ms" or "65ms:85ms" -> randomized policy; plain duration -> fixed.
core::IntervalPolicy parse_policy(std::string_view v) {
  const auto colon = v.find(':');
  if (colon == std::string_view::npos) {
    const auto d = parse_duration(v);
    if (!d) throw std::runtime_error{"config: bad conn_interval"};
    return core::IntervalPolicy::fixed(*d);
  }
  std::string_view lo_s = trim(v.substr(0, colon));
  std::string_view hi_s = trim(v.substr(colon + 1));
  // Allow the shorthand "65:85ms" (unit only on the upper bound).
  auto hi = parse_duration(hi_s);
  if (!hi) throw std::runtime_error{"config: bad conn_interval window"};
  auto lo = parse_duration(lo_s);
  if (!lo) {
    const auto num = parse_number(lo_s);
    if (!num) throw std::runtime_error{"config: bad conn_interval window"};
    // Reuse the unit of the upper bound.
    const auto unit_pos = hi_s.find_first_not_of("0123456789.");
    lo = parse_duration(std::string(lo_s) + std::string(hi_s.substr(unit_pos)));
    if (!lo) throw std::runtime_error{"config: bad conn_interval window"};
  }
  return core::IntervalPolicy::randomized(*lo, *hi);
}

/// Strictly parses an integer in [lo, hi]; throws "config: bad <key>"
/// deterministically on anything else (fractions, ranges, garbage).
std::uint64_t parse_uint_in(std::string_view v, const std::string& key,
                            std::uint64_t lo, std::uint64_t hi) {
  const auto n = parse_number(v);
  if (!n || *n < 0.0 || *n != static_cast<double>(static_cast<std::uint64_t>(*n))) {
    throw std::runtime_error{"config: bad " + key};
  }
  const auto u = static_cast<std::uint64_t>(*n);
  if (u < lo || u > hi) {
    throw std::runtime_error{"config: " + key + " out of range [" +
                             std::to_string(lo) + ", " + std::to_string(hi) + "]"};
  }
  return u;
}

sim::Duration parse_duration_or_throw(std::string_view v, const std::string& key) {
  const auto d = parse_duration(v);
  if (!d || d->is_negative()) throw std::runtime_error{"config: bad " + key};
  return *d;
}

/// flow.preset macro: switches whole tiers of the overload-survival stack on.
/// Overwrites the individual flow.*/cc.* knobs it covers; keys sorting after
/// "flow.preset" still win (config maps apply in alphabetical order).
void apply_flow_preset(ExperimentConfig& cfg, const std::string& value) {
  const bool link = value == "link" || value == "all";
  const bool netif = value == "netif" || value == "all";
  const bool app = value == "app" || value == "all";
  if (!link && !netif && !app && value != "off") {
    throw std::runtime_error{"config: unknown flow.preset '" + value +
                             "' (off|link|netif|app|all)"};
  }
  cfg.l2cap_deferred_credits = link;
  cfg.flow.txq_frames = netif ? 16 : 0;
  cfg.flow.backoff = netif;
  cfg.flow.breaker = netif;
  cfg.cc.mode = app ? app::CoapCcConfig::Mode::kCocoa : app::CoapCcConfig::Mode::kFixedRto;
  // NSTART 16 rather than the RFC 7252 default of 1: multi-hop BLE RTT is
  // connection-interval bound (~200 ms over three hops at 75 ms), so a
  // single outstanding exchange caps goodput far below link capacity. The
  // preset picks a window that fills the latency-bandwidth product; set
  // cc.nstart explicitly to override.
  cfg.cc.nstart = app ? 16 : 0;
}

Topology parse_topology(std::string_view v) {
  if (v == "tree15" || v == "tree") return Topology::tree15();
  if (v == "line15" || v == "line") return Topology::line15();
  if (v.rfind("star", 0) == 0) {
    const auto n = parse_number(v.substr(4));
    if (!n || *n < 2) throw std::runtime_error{"config: bad star topology size"};
    return Topology::star(static_cast<unsigned>(*n));
  }
  throw std::runtime_error{"config: unknown topology '" + std::string(v) + "'"};
}

}  // namespace

std::optional<sim::Duration> parse_duration(std::string_view text) {
  return sim::parse_duration(text);
}

void apply_experiment_kv(ExperimentConfig& cfg, const std::string& key,
                         const std::string& value) {
  if (key == "radio") {
    // Legacy spelling, limited to the original two radios; `link.backend`
    // below is the superset.
    if (value == "ble") cfg.radio = ExperimentConfig::Radio::kBle;
    else if (value == "802154" || value == "ieee802154")
      cfg.radio = ExperimentConfig::Radio::kIeee802154;
    else throw std::runtime_error{"config: unknown radio '" + value + "'"};
  } else if (key == "link.backend") {
    cfg.radio = core::parse_link_backend_kind(value);
  } else if (key == "topology") {
    cfg.topology = parse_topology(value);
  } else if (key == "duration") {
    const auto d = parse_duration(value);
    if (!d) throw std::runtime_error{"config: bad duration"};
    cfg.duration = *d;
  } else if (key == "producer_interval") {
    const auto d = parse_duration(value);
    if (!d) throw std::runtime_error{"config: bad producer_interval"};
    cfg.producer_interval = *d;
  } else if (key == "producer_jitter") {
    const auto d = parse_duration(value);
    if (!d) throw std::runtime_error{"config: bad producer_jitter"};
    cfg.producer_jitter = *d;
  } else if (key == "conn_interval") {
    cfg.policy = parse_policy(value);
  } else if (key == "supervision_timeout") {
    const auto d = parse_duration(value);
    if (!d) throw std::runtime_error{"config: bad supervision_timeout"};
    cfg.supervision_timeout = *d;
  } else if (key == "payload_len") {
    const auto n = parse_number(value);
    if (!n) throw std::runtime_error{"config: bad payload_len"};
    cfg.payload_len = static_cast<std::size_t>(*n);
  } else if (key == "seed") {
    const auto n = parse_number(value);
    if (!n) throw std::runtime_error{"config: bad seed"};
    cfg.seed = static_cast<std::uint64_t>(*n);
  } else if (key == "base_per") {
    const auto n = parse_number(value);
    if (!n) throw std::runtime_error{"config: bad base_per"};
    cfg.base_per = *n;
  } else if (key == "drift_ppm_range") {
    const auto n = parse_number(value);
    if (!n) throw std::runtime_error{"config: bad drift_ppm_range"};
    cfg.drift_ppm_range = *n;
  } else if (key == "jam_channel_22") {
    cfg.jam_channel_22 = parse_bool(value, key);
  } else if (key == "exclude_channel_22") {
    cfg.exclude_channel_22 = parse_bool(value, key);
  } else if (key == "adaptive_channel_map") {
    cfg.adaptive_channel_map = parse_bool(value, key);
  } else if (key == "confirmable_coap") {
    cfg.confirmable_coap = parse_bool(value, key);
  } else if (key == "param_update_mitigation") {
    cfg.param_update_mitigation = parse_bool(value, key);
  } else if (key == "arena") {
    cfg.arena = parse_bool(value, key);
  } else if (key == "compression") {
    if (value == "uncompressed") cfg.compression = net::CompressionMode::kUncompressed;
    else if (value == "iphc") cfg.compression = net::CompressionMode::kIphc;
    else throw std::runtime_error{"config: unknown compression '" + value + "'"};
  } else if (key == "metrics_bucket") {
    const auto d = parse_duration(value);
    if (!d) throw std::runtime_error{"config: bad metrics_bucket"};
    cfg.metrics_bucket = *d;
  } else if (key.rfind("fault.", 0) == 0) {
    // "none"/"off" clears the slot so a campaign axis can sweep a fault away.
    if (value == "none" || value == "off") {
      cfg.faults.erase(key);
    } else {
      try {
        cfg.faults[key] = fault::parse_fault_event(value);
      } catch (const std::exception& e) {
        throw std::runtime_error{"config: '" + key + "': " + e.what()};
      }
    }
  } else if (key == "chaos_rate") {
    const auto n = parse_number(value);
    if (!n || *n < 0.0) throw std::runtime_error{"config: bad chaos_rate"};
    cfg.chaos.rate_per_min = *n;
  } else if (key == "chaos_kinds") {
    try {
      cfg.chaos.kinds = fault::parse_kind_list(value);
    } catch (const std::exception& e) {
      throw std::runtime_error{"config: chaos_kinds: " + std::string(e.what())};
    }
  } else if (key == "reconnect_backoff_base") {
    const auto d = parse_duration(value);
    if (!d) throw std::runtime_error{"config: bad reconnect_backoff_base"};
    cfg.reconnect_backoff_base = *d;
  } else if (key == "reconnect_backoff_max") {
    const auto d = parse_duration(value);
    if (!d) throw std::runtime_error{"config: bad reconnect_backoff_max"};
    cfg.reconnect_backoff_max = *d;
  } else if (key == "reconnect_backoff_jitter") {
    const auto d = parse_duration(value);
    if (!d) throw std::runtime_error{"config: bad reconnect_backoff_jitter"};
    cfg.reconnect_backoff_jitter = *d;
  } else if (key == "flow.preset") {
    apply_flow_preset(cfg, value);
  } else if (key == "flow.l2cap_credits") {
    if (value == "deferred") cfg.l2cap_deferred_credits = true;
    else if (value == "immediate") cfg.l2cap_deferred_credits = false;
    else {
      throw std::runtime_error{"config: unknown flow.l2cap_credits '" + value +
                               "' (immediate|deferred)"};
    }
  } else if (key == "flow.initial_credits") {
    cfg.l2cap_initial_credits =
        static_cast<std::uint16_t>(parse_uint_in(value, key, 1, 65535));
  } else if (key == "flow.credit_batch") {
    cfg.l2cap_credit_batch =
        static_cast<std::uint16_t>(parse_uint_in(value, key, 1, 65535));
  } else if (key == "flow.txq_frames") {
    cfg.flow.txq_frames = static_cast<std::size_t>(parse_uint_in(value, key, 0, 1 << 20));
  } else if (key == "flow.backoff") {
    cfg.flow.backoff = parse_bool(value, key);
  } else if (key == "flow.backoff_base") {
    cfg.flow.backoff_base = parse_duration_or_throw(value, key);
  } else if (key == "flow.backoff_max") {
    cfg.flow.backoff_max = parse_duration_or_throw(value, key);
  } else if (key == "flow.backoff_jitter") {
    cfg.flow.backoff_jitter = parse_duration_or_throw(value, key);
  } else if (key == "flow.breaker") {
    cfg.flow.breaker = parse_bool(value, key);
  } else if (key == "flow.breaker_threshold") {
    cfg.flow.breaker_threshold = static_cast<unsigned>(parse_uint_in(value, key, 1, 1 << 20));
  } else if (key == "flow.breaker_open") {
    cfg.flow.breaker_open = parse_duration_or_throw(value, key);
  } else if (key == "flow.breaker_probes") {
    cfg.flow.breaker_probes = static_cast<unsigned>(parse_uint_in(value, key, 1, 1 << 20));
  } else if (key == "flow.congest_on_pct") {
    cfg.flow.congest_on_pct = static_cast<unsigned>(parse_uint_in(value, key, 1, 100));
  } else if (key == "flow.congest_off_pct") {
    cfg.flow.congest_off_pct = static_cast<unsigned>(parse_uint_in(value, key, 0, 100));
  } else if (key == "cc.mode") {
    if (value == "cocoa") cfg.cc.mode = app::CoapCcConfig::Mode::kCocoa;
    else if (value == "fixed") cfg.cc.mode = app::CoapCcConfig::Mode::kFixedRto;
    else throw std::runtime_error{"config: unknown cc.mode '" + value + "' (fixed|cocoa)"};
  } else if (key == "cc.nstart") {
    cfg.cc.nstart = static_cast<unsigned>(parse_uint_in(value, key, 0, 1 << 16));
  } else if (key == "mesh.ttl") {
    cfg.mesh.ttl = static_cast<std::uint32_t>(parse_uint_in(value, key, 1, 127));
  } else if (key == "mesh.relay_density") {
    const auto n = parse_number(value);
    if (!n) throw std::runtime_error{"config: bad " + key};
    if (*n < 0.0 || *n > 1.0) {
      throw std::runtime_error{"config: " + key + " out of range [0, 1]"};
    }
    cfg.mesh.relay_density = *n;
  } else if (key == "mesh.cache_entries") {
    cfg.mesh.cache_entries =
        static_cast<std::uint32_t>(parse_uint_in(value, key, 4, 65536));
  } else if (key == "mesh.transmit_count") {
    cfg.mesh.transmit_count =
        static_cast<std::uint32_t>(parse_uint_in(value, key, 1, 8));
  } else if (key == "mesh.adv_interval") {
    const sim::Duration d = parse_duration_or_throw(value, key);
    if (d < sim::Duration::ms(5) || d > sim::Duration::sec(10)) {
      throw std::runtime_error{"config: " + key + " out of range [5ms, 10s]"};
    }
    cfg.mesh.adv_interval = d;
  } else if (key == "mesh.heartbeat_period") {
    // 0 (or "off") disables heartbeat publication.
    cfg.mesh.heartbeat_period =
        (value == "off" || value == "0") ? sim::Duration{}
                                         : parse_duration_or_throw(value, key);
  } else if (key == "mesh.queue_cap") {
    cfg.mesh.queue_cap =
        static_cast<std::uint32_t>(parse_uint_in(value, key, 4, 4096));
  } else if (key == "mesh.reasm_entries") {
    cfg.mesh.reasm_entries =
        static_cast<std::uint32_t>(parse_uint_in(value, key, 1, 256));
  } else if (key == "mesh.scan_duty") {
    const auto n = parse_number(value);
    if (!n) throw std::runtime_error{"config: bad " + key};
    if (*n <= 0.0 || *n > 1.0) {
      throw std::runtime_error{"config: " + key + " out of range (0, 1]"};
    }
    cfg.mesh.scan_duty = *n;
  } else if (key == "energy.account") {
    cfg.energy_account = parse_bool(value, key);
  } else if (key == "trace.file") {
    // "none"/"off" clears the sink so a campaign axis can disable tracing.
    cfg.trace_file = (value == "none" || value == "off") ? std::string{} : value;
  } else if (key == "trace.pcap") {
    cfg.trace_pcap = (value == "none" || value == "off") ? std::string{} : value;
  } else if (key == "trace.categories") {
    try {
      cfg.trace_categories = sim::parse_trace_cat_mask(value);
    } catch (const std::exception& e) {
      throw std::runtime_error{"config: trace.categories: " + std::string(e.what())};
    }
  } else if (key.rfind("topo.", 0) == 0) {
    try {
      topo::apply_topo_kv(cfg.topo, key, value);
    } catch (const std::exception& e) {
      throw std::runtime_error{"config: " + std::string(e.what())};
    }
  } else {
    throw std::runtime_error{"config: unknown key '" + key + "'"};
  }
}

ExperimentConfig parse_experiment_config(std::string_view text) {
  ExperimentConfig cfg;
  std::map<std::string, std::string> kv;

  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto nl = text.find('\n', pos);
    std::string_view line = text.substr(pos, nl == std::string_view::npos
                                                 ? std::string_view::npos
                                                 : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;

    const auto hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw std::runtime_error{"config line " + std::to_string(line_no) +
                               ": expected key = value"};
    }
    kv[std::string(trim(line.substr(0, eq)))] = std::string(trim(line.substr(eq + 1)));
  }

  for (const auto& [key, value] : kv) apply_experiment_kv(cfg, key, value);
  if (cfg.flow.congest_off_pct > cfg.flow.congest_on_pct) {
    throw std::runtime_error{
        "config: flow.congest_off_pct must not exceed flow.congest_on_pct"};
  }
  if (cfg.flow.backoff_base > cfg.flow.backoff_max) {
    throw std::runtime_error{
        "config: flow.backoff_base must not exceed flow.backoff_max"};
  }
  if (cfg.topo.enabled()) {
    try {
      cfg.topo.validate();
    } catch (const std::exception& e) {
      throw std::runtime_error{"config: " + std::string(e.what())};
    }
  }
  return cfg;
}

ExperimentConfig load_experiment_config(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"config: cannot open " + path};
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_experiment_config(buf.str());
}

std::string render_experiment_config(const ExperimentConfig& config) {
  std::ostringstream out;
  // The two original radios keep their legacy line (byte-stable renders);
  // the newer backends use the superset key.
  if (config.radio == ExperimentConfig::Radio::kBle ||
      config.radio == ExperimentConfig::Radio::kIeee802154) {
    out << "radio = "
        << (config.radio == ExperimentConfig::Radio::kBle ? "ble" : "ieee802154")
        << "\n";
  } else {
    out << "link.backend = " << core::to_string(config.radio) << "\n";
  }
  if (config.topo.enabled()) {
    // Generated worlds: the topo.* spec is the source of truth; a static
    // "topology =" line would conflict with (and be overridden by) it.
    out << topo::render_topo_spec(config.topo);
  } else {
    out << "topology = " << config.topology.name
        << (config.topology.name == "star"
                ? std::to_string(config.topology.nodes.size())
                : std::string{"15"})
        << "\n";
  }
  out << "duration = " << config.duration.str() << "\n";
  out << "producer_interval = " << config.producer_interval.str() << "\n";
  out << "producer_jitter = " << config.producer_jitter.str() << "\n";
  if (config.policy.is_randomized()) {
    out << "conn_interval = " << config.policy.lo().str() << ":"
        << config.policy.hi().str() << "\n";
  } else {
    out << "conn_interval = " << config.policy.target().str() << "\n";
  }
  out << "supervision_timeout = " << config.supervision_timeout.str() << "\n";
  out << "payload_len = " << config.payload_len << "\n";
  out << "seed = " << config.seed << "\n";
  out << "base_per = " << config.base_per << "\n";
  out << "drift_ppm_range = " << config.drift_ppm_range << "\n";
  out << "jam_channel_22 = " << (config.jam_channel_22 ? "true" : "false") << "\n";
  out << "exclude_channel_22 = " << (config.exclude_channel_22 ? "true" : "false")
      << "\n";
  out << "adaptive_channel_map = " << (config.adaptive_channel_map ? "true" : "false")
      << "\n";
  out << "confirmable_coap = " << (config.confirmable_coap ? "true" : "false") << "\n";
  out << "param_update_mitigation = "
      << (config.param_update_mitigation ? "true" : "false") << "\n";
  // Default-on: only the A/B control (arena = false) is worth a line.
  if (!config.arena) out << "arena = false\n";
  out << "compression = "
      << (config.compression == net::CompressionMode::kIphc ? "iphc" : "uncompressed")
      << "\n";
  out << "metrics_bucket = " << config.metrics_bucket.str() << "\n";
  for (const auto& [key, ev] : config.faults) {
    out << key << " = " << ev.str() << "\n";
  }
  if (config.chaos.enabled()) {
    out << "chaos_rate = " << config.chaos.rate_per_min << "\n";
    if (!config.chaos.kinds.empty()) {
      out << "chaos_kinds = " << fault::render_kind_list(config.chaos.kinds) << "\n";
    }
  }
  out << "reconnect_backoff_base = " << config.reconnect_backoff_base.str() << "\n";
  out << "reconnect_backoff_max = " << config.reconnect_backoff_max.str() << "\n";
  out << "reconnect_backoff_jitter = " << config.reconnect_backoff_jitter.str()
      << "\n";
  // Flow-control knobs render only off their defaults, keeping legacy
  // configs byte-stable (same rule as the trace keys below).
  {
    const net::FlowConfig defaults;
    if (config.l2cap_deferred_credits) out << "flow.l2cap_credits = deferred\n";
    if (config.l2cap_initial_credits != 30) {
      out << "flow.initial_credits = " << config.l2cap_initial_credits << "\n";
    }
    if (config.l2cap_credit_batch != 8) {
      out << "flow.credit_batch = " << config.l2cap_credit_batch << "\n";
    }
    if (config.flow.txq_frames != defaults.txq_frames) {
      out << "flow.txq_frames = " << config.flow.txq_frames << "\n";
    }
    if (config.flow.backoff) out << "flow.backoff = true\n";
    if (config.flow.backoff_base != defaults.backoff_base) {
      out << "flow.backoff_base = " << config.flow.backoff_base.str() << "\n";
    }
    if (config.flow.backoff_max != defaults.backoff_max) {
      out << "flow.backoff_max = " << config.flow.backoff_max.str() << "\n";
    }
    if (config.flow.backoff_jitter != defaults.backoff_jitter) {
      out << "flow.backoff_jitter = " << config.flow.backoff_jitter.str() << "\n";
    }
    if (config.flow.breaker) out << "flow.breaker = true\n";
    if (config.flow.breaker_threshold != defaults.breaker_threshold) {
      out << "flow.breaker_threshold = " << config.flow.breaker_threshold << "\n";
    }
    if (config.flow.breaker_open != defaults.breaker_open) {
      out << "flow.breaker_open = " << config.flow.breaker_open.str() << "\n";
    }
    if (config.flow.breaker_probes != defaults.breaker_probes) {
      out << "flow.breaker_probes = " << config.flow.breaker_probes << "\n";
    }
    if (config.flow.congest_on_pct != defaults.congest_on_pct) {
      out << "flow.congest_on_pct = " << config.flow.congest_on_pct << "\n";
    }
    if (config.flow.congest_off_pct != defaults.congest_off_pct) {
      out << "flow.congest_off_pct = " << config.flow.congest_off_pct << "\n";
    }
    if (config.cc.mode == app::CoapCcConfig::Mode::kCocoa) out << "cc.mode = cocoa\n";
    if (config.cc.nstart != 0) out << "cc.nstart = " << config.cc.nstart << "\n";
  }
  // Mesh knobs follow the same off-default-only rule.
  {
    const mesh::MeshConfig defaults;
    if (config.mesh.ttl != defaults.ttl) {
      out << "mesh.ttl = " << config.mesh.ttl << "\n";
    }
    if (config.mesh.relay_density != defaults.relay_density) {
      out << "mesh.relay_density = " << config.mesh.relay_density << "\n";
    }
    if (config.mesh.cache_entries != defaults.cache_entries) {
      out << "mesh.cache_entries = " << config.mesh.cache_entries << "\n";
    }
    if (config.mesh.transmit_count != defaults.transmit_count) {
      out << "mesh.transmit_count = " << config.mesh.transmit_count << "\n";
    }
    if (config.mesh.adv_interval != defaults.adv_interval) {
      out << "mesh.adv_interval = " << config.mesh.adv_interval.str() << "\n";
    }
    if (config.mesh.heartbeat_period != defaults.heartbeat_period) {
      out << "mesh.heartbeat_period = " << config.mesh.heartbeat_period.str() << "\n";
    }
    if (config.mesh.queue_cap != defaults.queue_cap) {
      out << "mesh.queue_cap = " << config.mesh.queue_cap << "\n";
    }
    if (config.mesh.reasm_entries != defaults.reasm_entries) {
      out << "mesh.reasm_entries = " << config.mesh.reasm_entries << "\n";
    }
    if (config.mesh.scan_duty != defaults.scan_duty) {
      out << "mesh.scan_duty = " << config.mesh.scan_duty << "\n";
    }
  }
  if (config.energy_account) out << "energy.account = true\n";
  // Trace keys render only when set, keeping untraced configs byte-stable.
  if (!config.trace_file.empty()) out << "trace.file = " << config.trace_file << "\n";
  if (!config.trace_pcap.empty()) out << "trace.pcap = " << config.trace_pcap << "\n";
  if (config.trace_categories != sim::kAllTraceCats) {
    out << "trace.categories = " << sim::render_trace_cat_mask(config.trace_categories)
        << "\n";
  }
  return out.str();
}

}  // namespace mgap::testbed
