#include "testbed/config_file.hpp"

#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sim/binders.hpp"
#include "sim/number.hpp"
#include "topo/spec.hpp"

namespace mgap::testbed {

namespace {

using C = ExperimentConfig;
using sim::kInf;
using sim::Opts;
using sim::Show;

std::runtime_error bad(std::string_view key) {
  return std::runtime_error{"config: bad " + std::string(key)};
}

// --- the key table's row type ------------------------------------------------

struct Key;
/// `key` is the full key: for a prefix row it extends the row's name.
using Parse = void (*)(C&, const Key&, std::string_view key, std::string_view value);
/// Appends the row's lines (none, one, or several for a prefix row).
using Render = void (*)(std::string& out, const C&, const C& defaults, const Key&);

struct Key {
  std::string_view name;  // a trailing '.' makes the row a prefix
  Parse parse;
  Render render;
  Opts opt{};
  /// A typed row renders only where this holds (null: everywhere).
  bool (*shown)(const C&){nullptr};
};

std::runtime_error unknown(const Key& k, std::string_view v, std::string_view choices = {}) {
  return std::runtime_error{"config: unknown " + std::string(k.name) + " '" + std::string(v) +
                            "'" + std::string(choices)};
}

void line(std::string& out, std::string_view key, std::string_view value) {
  out.append(key).append(" = ").append(value).push_back('\n');
}

// --- typed rows: P... is the member-pointer path to the field ----------------

template <auto... P, class Config>
auto& at(Config& c) {
  return (c .* ... .* P);
}

template <auto... P>
void parse_field(C& c, const Key& k, std::string_view, std::string_view v) {
  sim::parse_value(at<P...>(c), v, k.opt, "config", k.name);
}

template <auto... P>
void render_field(std::string& out, const C& c, const C& defaults, const Key& k) {
  if (k.shown != nullptr && !k.shown(c)) return;
  const auto& field = at<P...>(c);
  if (k.opt.show == Show::kOffDefault && field == at<P...>(defaults)) return;
  line(out, k.name, sim::format_value(field, k.opt));
}

template <auto... P>
constexpr Key field(std::string_view name, Opts opt = {}, bool (*shown)(const C&) = nullptr) {
  return {name, parse_field<P...>, render_field<P...>, opt, shown};
}

// --- hand-written rows ---------------------------------------------------------

bool legacy_radio(const C& c) {
  return c.radio == C::Radio::kBle || c.radio == C::Radio::kIeee802154;
}

// The legacy spelling, limited to the original two radios.
void parse_radio(C& c, const Key& k, std::string_view, std::string_view v) {
  if (v == "ble") {
    c.radio = C::Radio::kBle;
  } else if (v == "802154" || v == "ieee802154") {
    c.radio = C::Radio::kIeee802154;
  } else {
    throw unknown(k, v);
  }
}
void render_radio(std::string& out, const C& c, const C&, const Key& k) {
  if (legacy_radio(c)) line(out, k.name, c.radio == C::Radio::kBle ? "ble" : "ieee802154");
}

// The superset of the legacy spelling: every backend.
void parse_backend(C& c, const Key&, std::string_view, std::string_view v) {
  c.radio = core::parse_link_backend_kind(std::string(v));
}
void render_backend(std::string& out, const C& c, const C&, const Key& k) {
  if (!legacy_radio(c)) line(out, k.name, core::to_string(c.radio));
}

void parse_topology(C& c, const Key& k, std::string_view, std::string_view v) {
  if (v == "tree15" || v == "tree") {
    c.topology = Topology::tree15();
  } else if (v == "line15" || v == "line") {
    c.topology = Topology::line15();
  } else if (v.starts_with("star")) {
    const auto n = sim::parse_real(v.substr(4));
    if (!n || *n < 2) throw bad(k.name);
    c.topology = Topology::star(static_cast<unsigned>(*n));
  } else if (v.starts_with("self_forming")) {
    // The generated worlds' node-count bound.
    const auto n = sim::parse_uint(v.substr(12));
    if (!n || *n < 2 || *n > 100'000) throw bad(k.name);
    c.topology = Topology::self_forming(static_cast<unsigned>(*n));
  } else {
    throw unknown(k, v);
  }
}
// A generated world renders its spec instead (the prefix row below).
void render_topology(std::string& out, const C& c, const C&, const Key& k) {
  if (c.topo.enabled()) return;
  const bool sized = c.topology.name == "star" || !c.topology.wired();
  line(out, k.name,
       c.topology.name + (sized ? std::to_string(c.topology.nodes.size()) : std::string{"15"}));
}

// The generated world's rows render only while a generator is set, and some
// only for the generator that reads them.
bool topo_on(const C& c) { return c.topo.enabled(); }
// A deployment is sized by `area` or, when that is 0, by `density`.
bool topo_area(const C& c) { return topo_on(c) && c.topo.area > 0; }
bool topo_density(const C& c) { return topo_on(c) && !(c.topo.area > 0); }
bool jitter_grid(const C& c) { return c.topo.generator == topo::Generator::kJitterGrid; }
bool floorplan(const C& c) { return c.topo.generator == topo::Generator::kFloorplan; }

void parse_generator(C& c, const Key& k, std::string_view, std::string_view v) {
  const auto g = topo::parse_generator(v);
  if (!g) throw unknown(k, v);
  c.topo.generator = *g;
}
void render_generator(std::string& out, const C& c, const C&, const Key& k) {
  if (topo_on(c)) line(out, k.name, c.topo.generator_name());
}

// "4x3" -> rooms_x = 4, rooms_y = 3.
void parse_rooms(C& c, const Key& k, std::string_view, std::string_view v) {
  sim::parse_pair(c.topo.rooms_x, c.topo.rooms_y, 'x', v, k.opt, "config", k.name);
}
void render_rooms(std::string& out, const C& c, const C&, const Key& k) {
  if (floorplan(c) && c.topo.rooms_x > 0) {
    line(out, k.name, std::to_string(c.topo.rooms_x) + "x" + std::to_string(c.topo.rooms_y));
  }
}

/// "65:85ms" or "65ms:85ms" -> randomized policy; plain duration -> fixed.
void parse_policy(C& c, const Key& k, std::string_view, std::string_view v) {
  const auto colon = v.find(':');
  if (colon == std::string_view::npos) {
    const auto d = sim::parse_duration(v);
    if (!d || d->is_negative()) throw bad(k.name);
    c.policy = core::IntervalPolicy::fixed(*d);
    return;
  }
  const std::string_view lo_s = trim(v.substr(0, colon));
  const std::string_view hi_s = trim(v.substr(colon + 1));
  const auto hi = sim::parse_duration(hi_s);
  auto lo = sim::parse_duration(lo_s);
  // The shorthand "65:85ms" puts the unit on the upper bound only.
  if (hi && !lo && sim::parse_real(lo_s)) {
    lo = sim::parse_duration(std::string(lo_s) +
                        std::string(hi_s.substr(hi_s.find_first_not_of("0123456789."))));
  }
  if (!lo || !hi || lo->is_negative() || *hi < *lo) throw bad(k.name);
  c.policy = core::IntervalPolicy::randomized(*lo, *hi);
}
void render_policy(std::string& out, const C& c, const C&, const Key& k) {
  const core::IntervalPolicy& p = c.policy;
  line(out, k.name, p.is_randomized() ? p.lo().str() + ":" + p.hi().str() : p.target().str());
}

// Keyed by the full key, so a campaign axis on one slot replaces it rather
// than appending; "none"/"off" clears the slot.
void parse_fault(C& c, const Key&, std::string_view key, std::string_view v) {
  if (v == "none" || v == "off") {
    c.faults.erase(std::string(key));
    return;
  }
  try {
    c.faults[std::string(key)] = fault::parse_fault_event(v);
  } catch (const std::exception& e) {
    throw std::runtime_error{"config: '" + std::string(key) + "': " + e.what()};
  }
}
void render_faults(std::string& out, const C& c, const C&, const Key&) {
  for (const auto& [key, ev] : c.faults) line(out, key, ev.str());
}

void parse_chaos_kinds(C& c, const Key& k, std::string_view, std::string_view v) {
  try {
    c.chaos.kinds = fault::parse_kind_list(v);
  } catch (const std::exception& e) {
    throw std::runtime_error{"config: " + std::string(k.name) + ": " + e.what()};
  }
}
void render_chaos_kinds(std::string& out, const C& c, const C&, const Key& k) {
  if (c.chaos.enabled() && !c.chaos.kinds.empty()) {
    line(out, k.name, fault::render_kind_list(c.chaos.kinds));
  }
}

/// A macro that switches whole tiers of the overload-survival stack on. It
/// overwrites the flow and cc knobs it covers; like any key it applies in
/// file order, so a knob set on a later line wins over the preset.
void parse_flow_preset(C& c, const Key& k, std::string_view, std::string_view v) {
  const bool link = v == "link" || v == "all";
  const bool netif = v == "netif" || v == "all";
  const bool app = v == "app" || v == "all";
  if (!link && !netif && !app && v != "off") {
    throw unknown(k, v, " (off|link|netif|app|all)");
  }
  c.l2cap_deferred_credits = link;
  c.flow.txq_frames = netif ? 16 : 0;
  c.flow.backoff = netif;
  c.flow.breaker = netif;
  c.cc.mode = app ? app::CoapCcConfig::Mode::kCocoa : app::CoapCcConfig::Mode::kFixedRto;
  // NSTART 16 rather than the RFC 7252 default of 1: multi-hop BLE RTT is
  // connection-interval bound (~200 ms over three hops at 75 ms), so a
  // single outstanding exchange caps goodput far below link capacity. The
  // preset picks a window that fills the latency-bandwidth product; set the
  // NSTART knob on a later line to override.
  c.cc.nstart = app ? 16 : 0;
}
// The knobs it sets render themselves.
void render_nothing(std::string&, const C&, const C&, const Key&) {}

// Trace sinks: "none"/"off" clears the path so a campaign axis can disable
// tracing; an empty path renders nothing.
template <auto P>
void parse_path(C& c, const Key&, std::string_view, std::string_view v) {
  c.*P = (v == "none" || v == "off") ? std::string{} : std::string(v);
}
template <auto P>
void render_path(std::string& out, const C& c, const C&, const Key& k) {
  if (!(c.*P).empty()) line(out, k.name, c.*P);
}

void parse_trace_cats(C& c, const Key& k, std::string_view, std::string_view v) {
  try {
    c.trace_categories = sim::parse_trace_cat_mask(std::string(v));
  } catch (const std::exception& e) {
    throw std::runtime_error{"config: " + std::string(k.name) + ": " + e.what()};
  }
}
void render_trace_cats(std::string& out, const C& c, const C& defaults, const Key& k) {
  if (c.trace_categories != defaults.trace_categories) {
    line(out, k.name, sim::render_trace_cat_mask(c.trace_categories));
  }
}

// --- the key table -----------------------------------------------------------

using F = net::FlowConfig;
using Cc = app::CoapCcConfig;
using M = mesh::MeshConfig;
using T = topo::TopoSpec;
constexpr Show kOff = Show::kOffDefault;

/// Every config key, in render order. The newer keys render only off their
/// defaults, so descriptions written before them stay byte-stable.
constexpr Key kKeys[] = {
    {"radio", parse_radio, render_radio},
    {"link.backend", parse_backend, render_backend},
    {"topology", parse_topology, render_topology},
    {"topo.generator", parse_generator, render_generator},
    field<&C::topo, &T::nodes>("topo.nodes", {.lo = 1}, topo_on),
    field<&C::topo, &T::area>("topo.area", {}, topo_area),
    field<&C::topo, &T::density>("topo.density", {.open_lo = true}, topo_density),
    field<&C::topo, &T::range>("topo.range", {.open_lo = true}, topo_on),
    field<&C::topo, &T::max_degree>("topo.max_degree", {kOff}, topo_on),
    field<&C::topo, &T::grid_jitter>("topo.grid_jitter", {.hi = 1}, jitter_grid),
    {"topo.rooms", parse_rooms, render_rooms, {.lo = 1}},
    field<&C::topo, &T::wall_loss_db>("topo.wall_loss_db", {}, floorplan),
    field<&C::topo, &T::tx_power_dbm>("topo.tx_power_dbm", {kOff, -kInf}, topo_on),
    field<&C::topo, &T::path_loss_exp>("topo.path_loss_exp", {kOff, 0, kInf, true}, topo_on),
    field<&C::topo, &T::sensitivity_dbm>("topo.sensitivity_dbm", {kOff, -kInf}, topo_on),
    field<&C::topo, &T::fade_margin_db>("topo.fade_margin_db", {kOff, 0, kInf, true}, topo_on),
    field<&C::topo, &T::seed>("topo.seed", {kOff}, topo_on),
    field<&C::duration>("duration"),
    field<&C::producer_interval>("producer_interval"),
    field<&C::producer_jitter>("producer_jitter"),
    {"conn_interval", parse_policy, render_policy},
    field<&C::supervision_timeout>("supervision_timeout"),
    field<&C::payload_len>("payload_len"),
    field<&C::seed>("seed"),
    field<&C::base_per>("base_per", {.hi = 1}),
    field<&C::drift_ppm_range>("drift_ppm_range", {.hi = 1000}),  // bounded like fault ppm=
    field<&C::jam_channel_22>("jam_channel_22"),
    field<&C::exclude_channel_22>("exclude_channel_22"),
    field<&C::adaptive_channel_map>("adaptive_channel_map"),
    field<&C::confirmable_coap>("confirmable_coap"),
    field<&C::param_update_mitigation>("param_update_mitigation"),
    field<&C::arena>("arena", {kOff}),
    field<&C::compression>("compression", {.names = {"uncompressed", "iphc"}}),
    field<&C::metrics_bucket>("metrics_bucket", {.lo = 0, .open_lo = true}),
    {"fault.", parse_fault, render_faults},
    field<&C::chaos, &fault::ChaosConfig::rate_per_min>("chaos_rate", {kOff, 0}),
    {"chaos_kinds", parse_chaos_kinds, render_chaos_kinds},
    field<&C::reconnect_backoff_base>("reconnect_backoff_base"),
    field<&C::reconnect_backoff_max>("reconnect_backoff_max"),
    field<&C::reconnect_backoff_jitter>("reconnect_backoff_jitter"),
    {"flow.preset", parse_flow_preset, render_nothing},
    field<&C::l2cap_deferred_credits>("flow.l2cap_credits",
                                      {.show = kOff, .names = {"immediate", "deferred"}}),
    field<&C::l2cap_initial_credits>("flow.initial_credits", {kOff, 1, 65535}),
    field<&C::l2cap_credit_batch>("flow.credit_batch", {kOff, 1, 65535}),
    field<&C::flow, &F::txq_frames>("flow.txq_frames", {kOff, 0, 1 << 20}),
    field<&C::flow, &F::backoff>("flow.backoff", {kOff}),
    field<&C::flow, &F::backoff_base>("flow.backoff_base", {kOff}),
    field<&C::flow, &F::backoff_max>("flow.backoff_max", {kOff}),
    field<&C::flow, &F::backoff_jitter>("flow.backoff_jitter", {kOff}),
    field<&C::flow, &F::breaker>("flow.breaker", {kOff}),
    field<&C::flow, &F::breaker_threshold>("flow.breaker_threshold", {kOff, 1, 1 << 20}),
    field<&C::flow, &F::breaker_open>("flow.breaker_open", {kOff}),
    field<&C::flow, &F::breaker_probes>("flow.breaker_probes", {kOff, 1, 1 << 20}),
    field<&C::flow, &F::congest_on_pct>("flow.congest_on_pct", {kOff, 1, 100}),
    field<&C::flow, &F::congest_off_pct>("flow.congest_off_pct", {kOff, 0, 100}),
    field<&C::cc, &Cc::mode>("cc.mode", {.show = kOff, .names = {"fixed", "cocoa"}}),
    field<&C::cc, &Cc::nstart>("cc.nstart", {kOff, 0, 1 << 16}),
    field<&C::mesh, &M::ttl>("mesh.ttl", {kOff, 1, 127}),
    field<&C::mesh, &M::relay_density>("mesh.relay_density", {kOff, 0, 1}),
    field<&C::mesh, &M::cache_entries>("mesh.cache_entries", {kOff, 4, 65536}),
    field<&C::mesh, &M::transmit_count>("mesh.transmit_count", {kOff, 1, 8}),
    field<&C::mesh, &M::adv_interval>("mesh.adv_interval", {kOff, 5e6, 10e9}),
    field<&C::mesh, &M::heartbeat_period>("mesh.heartbeat_period",
                                          {.show = kOff, .names = {"off", "0"}}),
    field<&C::mesh, &M::queue_cap>("mesh.queue_cap", {kOff, 4, 4096}),
    field<&C::mesh, &M::reasm_entries>("mesh.reasm_entries", {kOff, 1, 256}),
    field<&C::mesh, &M::scan_duty>("mesh.scan_duty", {kOff, 0, 1, true}),
    field<&C::energy_account>("energy.account", {kOff}),
    {"trace.file", parse_path<&C::trace_file>, render_path<&C::trace_file>},
    {"trace.pcap", parse_path<&C::trace_pcap>, render_path<&C::trace_pcap>},
    {"trace.categories", parse_trace_cats, render_trace_cats},
};

const Key* find_key(std::string_view key) {
  for (const Key& k : kKeys) {
    if (k.name.back() == '.' ? key.starts_with(k.name) : key == k.name) return &k;
  }
  return nullptr;
}

}  // namespace

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

void for_each_key_value(
    std::string_view text, std::string_view what,
    const std::function<void(std::string_view, std::string_view, std::size_t)>& fn) {
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto nl = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, nl == std::string_view::npos ? std::string_view::npos : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;

    line = trim(line.substr(0, line.find('#')));
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw std::runtime_error{std::string(what) + " line " + std::to_string(line_no) +
                               ": expected key = value"};
    }
    fn(trim(line.substr(0, eq)), trim(line.substr(eq + 1)), line_no);
  }
}

void apply_experiment_kv(ExperimentConfig& cfg, std::string_view key, std::string_view value) {
  const Key* k = find_key(key);
  if (k == nullptr) throw std::runtime_error{"config: unknown key '" + std::string(key) + "'"};
  k->parse(cfg, *k, key, value);
}

void validate(const ExperimentConfig& cfg) {
  try {
    cfg.flow.validate();
    cfg.topo.validate();
  } catch (const std::exception& e) {
    throw std::runtime_error{"config: " + std::string(e.what())};
  }
  check_self_forming(cfg);
}

std::vector<std::string_view> experiment_config_keys() {
  std::vector<std::string_view> names;
  for (const Key& k : kKeys) names.push_back(k.name);
  return names;
}

ExperimentConfig parse_experiment_config(std::string_view text) {
  ExperimentConfig cfg;
  for_each_key_value(text, "config", [&cfg](std::string_view key, std::string_view value,
                                            std::size_t) { apply_experiment_kv(cfg, key, value); });
  validate(cfg);
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
  const ExperimentConfig defaults;
  std::string out;
  for (const Key& k : kKeys) k.render(out, config, defaults, k);
  return out;
}

}  // namespace mgap::testbed
