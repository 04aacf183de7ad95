#include "testbed/config_file.hpp"

#include <algorithm>
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
using sim::trim;

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
  /// Throws unless the row's value meets its bounds, however it was set.
  void (*check)(const C&, const Key&){nullptr};
};

std::runtime_error unknown(const Key& k, std::string_view v, std::string_view choices = {}) {
  return std::runtime_error{"config: unknown " + std::string(k.name) + " '" + std::string(v) +
                            "'" + std::string(choices)};
}

/// Runs `fn`; an error it throws reads "config: <what>: <error>", with
/// `what` in quotes when `quote` is set.
template <class Fn>
void naming(std::string_view what, bool quote, Fn fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    const std::string q = quote ? "'" : "";
    throw std::runtime_error{"config: " + q + std::string(what) + q + ": " + e.what()};
  }
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
void check_field(const C& c, const Key& k) {
  sim::check_value(at<P...>(c), k.opt, "config", k.name);
}

template <auto... P>
constexpr Key field(std::string_view name, Opts opt = {}, bool (*shown)(const C&) = nullptr) {
  return {name, parse_field<P...>, render_field<P...>, opt, shown, check_field<P...>};
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

// Every world's node count: `topo.nodes` and the N of `starN`, `self_formingN`.
constexpr Opts kNodes{.lo = 2, .hi = topo::kMaxNodes};

void parse_topology(C& c, const Key& k, std::string_view, std::string_view v) {
  unsigned n = 0;
  if (v == "tree15" || v == "tree") {
    c.topology = Topology::tree15();
  } else if (v == "line15" || v == "line") {
    c.topology = Topology::line15();
  } else if (v.starts_with("star")) {
    sim::parse_value(n, v.substr(4), kNodes, "config", k.name);
    c.topology = Topology::star(n);
  } else if (v.starts_with("self_forming")) {
    sim::parse_value(n, v.substr(12), kNodes, "config", k.name);
    c.topology = Topology::self_forming(n);
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
  sim::Duration lo;
  const auto colon = v.find(':');
  if (colon == std::string_view::npos) {
    sim::parse_value(lo, v, k.opt, "config", k.name);
    c.policy = core::IntervalPolicy::fixed(lo);
    return;
  }
  sim::Duration hi;
  const std::string_view hi_s = trim(v.substr(colon + 1));
  sim::parse_value(hi, hi_s, k.opt, "config", k.name);
  std::string lo_s{trim(v.substr(0, colon))};
  // The shorthand "65:85ms" puts the unit on the upper bound only.
  if (sim::parse_real(lo_s)) lo_s += hi_s.substr(hi_s.find_first_not_of("0123456789."));
  sim::parse_value(lo, lo_s, k.opt, "config", k.name);
  sim::check_value(hi - lo, k.opt, "config", k.name);  // an inverted window is bad
  c.policy = core::IntervalPolicy::randomized(lo, hi);
}
// IntervalPolicy keeps lo <= hi itself; lo carries the bound.
void check_policy(const C& c, const Key& k) {
  sim::check_value(c.policy.lo(), k.opt, "config", k.name);
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
  naming(key, true, [&] { c.faults[std::string(key)] = fault::parse_fault_event(v); });
}
void render_faults(std::string& out, const C& c, const C&, const Key&) {
  for (const auto& [key, ev] : c.faults) line(out, key, ev.str());
}
void check_faults(const C& c, const Key&) {
  for (const auto& entry : c.faults) {
    naming(entry.first, true, [&] { fault::validate(entry.second); });
  }
}

void parse_chaos_kinds(C& c, const Key& k, std::string_view, std::string_view v) {
  naming(k.name, false, [&] { c.chaos.kinds = fault::parse_kind_list(v); });
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

void parse_trace_cats(C& c, const Key& k, std::string_view, std::string_view v) {
  naming(k.name, false, [&] { c.trace_categories = sim::parse_trace_cat_mask(v); });
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
constexpr Opts kTracePath{.show = kOff, .names = {"none", "off"}};

/// Every config key, in render order. The newer keys render only off their
/// defaults, so descriptions written before them stay byte-stable.
constexpr Key kKeys[] = {
    {"radio", parse_radio, render_radio},
    {"link.backend", parse_backend, render_backend},
    {"topology", parse_topology, render_topology},
    {"topo.generator", parse_generator, render_generator},
    field<&C::topo, &T::nodes>("topo.nodes", kNodes, topo_on),
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
    {"conn_interval", parse_policy, render_policy, {}, nullptr, check_policy},
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
    {"fault.", parse_fault, render_faults, {}, nullptr, check_faults},
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
    // "none"/"off" clears a path, so a campaign axis can disable tracing.
    field<&C::trace_file>("trace.file", kTracePath),
    field<&C::trace_pcap>("trace.pcap", kTracePath),
    {"trace.categories", parse_trace_cats, render_trace_cats},
};

/// The rules a self-forming topology (no edges) adds to a configuration: the
/// BLE backend, no generated world, no crash faults, and chaos kinds it can
/// sample. A no-op for wired topologies.
void check_self_forming(const ExperimentConfig& config) {
  if (config.topology.wired()) return;
  const std::string topo =
      "topology = " + config.topology.name + std::to_string(config.topology.nodes.size());
  if (config.topo.enabled()) {
    throw std::runtime_error{"config: " + topo + " cannot take topo.generator " +
                             "(a generated world is wired)"};
  }
  if (config.radio != core::LinkBackendKind::kBle) {
    throw std::runtime_error{"config: " + topo + " needs link.backend = ble " +
                             "(dynconn forms BLE links)"};
  }
  // A crash would only switch the radio off: dynconn has no suspend/resume,
  // so the run would not model a reboot.
  for (const auto& [key, ev] : config.faults) {
    if (ev.kind == fault::FaultKind::kCrash) {
      throw std::runtime_error{"config: " + key + ": a crash needs a wired topology, not " +
                               topo};
    }
  }
  // Chaos link faults pick from the topology's edges, and a self-forming one
  // has none: chaos samples node-scoped faults only, and needs one to sample.
  if (config.chaos.enabled()) {
    const auto& kinds = config.chaos.kinds;
    const bool crash = std::find(kinds.begin(), kinds.end(), fault::FaultKind::kCrash) !=
                       kinds.end();
    const bool node_scoped = std::any_of(kinds.begin(), kinds.end(), [](fault::FaultKind k) {
      return k != fault::FaultKind::kBlackout && k != fault::FaultKind::kAttenuate;
    });
    if (kinds.empty() || crash || !node_scoped) {
      throw std::runtime_error{"config: chaos_kinds on " + topo +
                               " must leave out crash and name a kind that needs no edge"};
    }
  }
}

const Key* find_key(std::string_view key) {
  for (const Key& k : kKeys) {
    if (k.name.back() == '.' ? key.starts_with(k.name) : key == k.name) return &k;
  }
  return nullptr;
}

}  // namespace

void for_each_key_value(
    std::string_view text, std::string_view what,
    const std::function<void(std::string_view, std::string_view, std::size_t)>& fn) {
  std::size_t line_no = 0;
  for (std::string_view line : sim::split(text, '\n')) {
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
  for (const Key& k : kKeys) {
    if (k.check != nullptr) k.check(cfg, k);
  }
  // The rules that span keys.
  if (cfg.flow.congest_off_pct > cfg.flow.congest_on_pct) {
    throw std::runtime_error{"config: flow.congest_off_pct must not exceed flow.congest_on_pct"};
  }
  if (cfg.flow.backoff_base > cfg.flow.backoff_max) {
    throw std::runtime_error{"config: flow.backoff_base must not exceed flow.backoff_max"};
  }
  try {
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
