#include "fault/spec.hpp"

#include <algorithm>
#include <iterator>
#include <span>
#include <stdexcept>

#include "sim/binders.hpp"

namespace mgap::fault {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error{"fault: " + what};
}

using E = FaultEvent;
using sim::Opts;

/// One `name=value` field of a fault kind; `name` ends in '='. Absent, a
/// required field fails, an optional one parses its fallback text, if any,
/// else keeps the member's default. Required fields and those with a
/// fallback always render; the others only off the default.
struct Field {
  std::string_view name;
  void (*parse)(E&, const Field&, std::string_view value);
  std::string (*format)(const E&, const Field&);
  /// Throws unless the member meets `opt`; an optional field left at its
  /// default was not given and passes.
  void (*check)(const E&, const Field&);
  bool required;
  Opts opt;
  std::string_view fallback;
};

template <auto P>
void parse_member(E& ev, const Field& f, std::string_view v) {
  sim::parse_value(ev.*P, v, f.opt, "fault", f.name);
}
template <auto P>
std::string format_member(const E& ev, const Field& f) {
  return sim::format_value(ev.*P, f.opt);
}
template <auto P>
void check_member(const E& ev, const Field& f) {
  if (!f.required && ev.*P == E{}.*P) return;
  sim::check_value(ev.*P, f.opt, "fault", f.name);
}

// "A-B": link=2-5, channels=10-14.
template <auto A, auto B>
void parse_span(E& ev, const Field& f, std::string_view v) {
  sim::parse_pair(ev.*A, ev.*B, '-', v, f.opt, "fault", f.name);
}
template <auto A, auto B>
std::string format_span(const E& ev, const Field& f) {
  return sim::format_value(ev.*A, f.opt) + "-" + sim::format_value(ev.*B, f.opt);
}
template <auto A, auto B>
void check_span(const E& ev, const Field& f) {
  sim::check_value(ev.*A, f.opt, "fault", f.name);
  sim::check_value(ev.*B, f.opt, "fault", f.name);
}

constexpr bool kRequired = true;
constexpr bool kOptional = false;

template <auto P>
constexpr Field field(std::string_view name, bool required, Opts opt = {},
                      std::string_view fallback = {}) {
  return {name, parse_member<P>, format_member<P>, check_member<P>, required, opt, fallback};
}
template <auto A, auto B>
constexpr Field span(std::string_view name, Opts opt) {
  return {name, parse_span<A, B>, format_span<A, B>, check_span<A, B>, kRequired, opt, {}};
}

// kInvalidNode marks "no node", so no field may name it.
constexpr Opts kNodeId{.lo = 1, .hi = kInvalidNode - 1};
constexpr Opts kPer{.hi = 1};
constexpr Opts kRadius{.open_lo = true};  // meters > 0
// Twice the BLE sleep clock's 500 ppm worst case; chaos draws +-150.
constexpr Opts kPpm{.lo = -1000, .hi = 1000};

constexpr Field kAt = field<&E::at>("at=", kRequired);
constexpr Field kNode = field<&E::node>("node=", kRequired, kNodeId);
constexpr Field kFor = field<&E::duration>("for=", kRequired);
constexpr Field kLink = span<&E::node, &E::peer>("link=", kNodeId);

constexpr Field kCrash[] = {kNode, kAt, field<&E::duration>("reboot_after=", kOptional)};
constexpr Field kBlackout[] = {kLink, kAt, kFor};
constexpr Field kAttenuate[] = {kLink, kAt, kFor, field<&E::per>("per=", kRequired, kPer)};
// A radius scopes interference to the nodes around `node`.
constexpr Field kInterfere[] = {span<&E::chan_lo, &E::chan_hi>("channels=", {.hi = 36}),
                                kAt,
                                kFor,
                                field<&E::per>("per=", kOptional, kPer, "0.9"),
                                field<&E::node>("node=", kOptional, kNodeId),
                                field<&E::radius>("radius=", kOptional, kRadius)};
constexpr Field kClockDrift[] = {kNode, kAt, field<&E::ppm>("ppm=", kRequired, kPpm),
                                 field<&E::duration>("for=", kOptional)};
constexpr Field kClockStep[] = {kNode, kAt,
                                field<&E::step>("step=", kRequired, {.lo = -sim::kInf})};
constexpr Field kPressure[] = {kNode, kAt, kFor, field<&E::bytes>("bytes=", kRequired, {.lo = 1}),
                               field<&E::radius>("radius=", kOptional, kRadius)};

/// Every fault kind: its name and its fields in render order. Indexed by
/// FaultKind.
struct Kind {
  std::string_view name;
  std::span<const Field> fields;
};
constexpr Kind kKinds[] = {
    {"crash", kCrash},         {"blackout", kBlackout},     {"attenuate", kAttenuate},
    {"interfere", kInterfere}, {"clock_drift", kClockDrift}, {"clock_step", kClockStep},
    {"pressure", kPressure},
};

const Kind& kind_of(FaultKind kind) { return kKinds[static_cast<std::size_t>(kind)]; }

FaultKind find_kind(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kKinds); ++i) {
    if (kKinds[i].name == name) return static_cast<FaultKind>(i);
  }
  fail("unknown fault kind '" + std::string(name) + "'");
}

}  // namespace

std::string FaultEvent::str() const {
  const Kind& k = kind_of(kind);
  std::string out{k.name};
  for (const Field& f : k.fields) {
    const std::string value = f.format(*this, f);
    if (!f.required && f.fallback.empty() && value == f.format(FaultEvent{}, f)) continue;
    out.append(" ").append(f.name).append(value);
  }
  return out;
}

FaultEvent parse_fault_event(std::string_view text) {
  // Tokenize on whitespace: first token is the kind, the rest key=value.
  std::vector<std::string_view> tokens;
  for (auto pos = text.find_first_not_of(sim::kSpace); pos != std::string_view::npos;
       pos = text.find_first_not_of(sim::kSpace, pos + tokens.back().size())) {
    tokens.push_back(text.substr(pos, text.find_first_of(sim::kSpace, pos) - pos));
  }
  if (tokens.empty()) fail("empty fault spec");

  FaultEvent ev;
  ev.kind = find_kind(tokens.front());
  const Kind& kind = kind_of(ev.kind);
  std::vector<bool> seen(kind.fields.size());
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const auto eq = tokens[i].find('=');
    if (eq == std::string_view::npos || eq == 0) {
      fail("expected key=value, got '" + std::string(tokens[i]) + "'");
    }
    const std::string_view key = tokens[i].substr(0, eq + 1);
    const auto f = std::find_if(kind.fields.begin(), kind.fields.end(),
                                [key](const Field& x) { return x.name == key; });
    if (f == kind.fields.end()) {
      fail("unknown key '" + std::string(key.substr(0, eq)) + "' for " +
           std::string(kind.name));
    }
    f->parse(ev, *f, tokens[i].substr(eq + 1));
    seen[static_cast<std::size_t>(f - kind.fields.begin())] = true;
  }
  for (std::size_t i = 0; i < kind.fields.size(); ++i) {
    const Field& f = kind.fields[i];
    if (seen[i]) continue;
    if (f.required) fail(std::string(kind.name) + " needs " + std::string(f.name));
    if (!f.fallback.empty()) f.parse(ev, f, f.fallback);
  }
  validate(ev);
  return ev;
}

void validate(const FaultEvent& ev) {
  for (const Field& f : kind_of(ev.kind).fields) f.check(ev, f);
  // The rules that span fields.
  if (ev.peer != kInvalidNode && ev.node == ev.peer) fail("link= needs two distinct nodes");
  if (ev.chan_lo > ev.chan_hi) fail("channels= needs LO <= HI");
  if (ev.kind == FaultKind::kInterfere && (ev.node == kInvalidNode) != (ev.radius == 0.0)) {
    fail("interfere takes node= and radius= together");
  }
}

std::vector<FaultKind> parse_kind_list(std::string_view text) {
  std::vector<FaultKind> out;
  for (const std::string_view item : sim::split(text, '+')) {
    if (!item.empty()) out.push_back(find_kind(item));
  }
  return out;
}

std::string render_kind_list(const std::vector<FaultKind>& kinds) {
  std::string out;
  for (const FaultKind k : kinds) {
    if (!out.empty()) out += '+';
    out += kind_of(k).name;
  }
  return out;
}

std::vector<FaultEvent> sample_chaos(const ChaosConfig& cfg,
                                     const std::vector<NodeId>& nodes,
                                     const std::vector<std::pair<NodeId, NodeId>>& edges,
                                     sim::Duration horizon, sim::Rng& rng) {
  std::vector<FaultEvent> out;
  if (!cfg.enabled() || nodes.empty()) return out;

  std::vector<FaultKind> kinds = cfg.kinds;
  if (kinds.empty()) {
    for (std::size_t i = 0; i < std::size(kKinds); ++i) kinds.push_back(static_cast<FaultKind>(i));
  }
  // Link faults are impossible without edges.
  if (edges.empty()) {
    kinds.erase(std::remove_if(kinds.begin(), kinds.end(),
                               [](FaultKind k) {
                                 return k == FaultKind::kBlackout ||
                                        k == FaultKind::kAttenuate;
                               }),
                kinds.end());
    if (kinds.empty()) return out;
  }

  const sim::TimePoint window_start = sim::TimePoint::origin() + horizon / 10;
  const sim::TimePoint window_end = sim::TimePoint::origin() + (horizon / 10) * 9;
  const double mean_gap_s = 60.0 / cfg.rate_per_min;

  auto pick_node = [&] {
    return nodes[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(nodes.size()) - 1))];
  };

  sim::TimePoint t = window_start;
  while (true) {
    t += sim::Duration::sec_f(rng.exponential(mean_gap_s));
    if (t >= window_end) break;

    FaultEvent ev;
    ev.kind = kinds[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kinds.size()) - 1))];
    ev.at = t;
    switch (ev.kind) {
      case FaultKind::kCrash:
        ev.node = pick_node();
        ev.duration = rng.uniform_duration(sim::Duration::sec(2), sim::Duration::sec(10));
        break;
      case FaultKind::kBlackout:
      case FaultKind::kAttenuate: {
        const auto& edge = edges[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(edges.size()) - 1))];
        ev.node = edge.first;
        ev.peer = edge.second;
        ev.duration = rng.uniform_duration(sim::Duration::sec(1), sim::Duration::sec(5));
        ev.per = ev.kind == FaultKind::kBlackout ? 1.0 : rng.uniform_real(0.3, 0.9);
        break;
      }
      case FaultKind::kInterfere: {
        const auto lo = rng.uniform_int(0, 32);
        ev.chan_lo = static_cast<std::uint8_t>(lo);
        ev.chan_hi = static_cast<std::uint8_t>(
            std::min<std::int64_t>(36, lo + rng.uniform_int(1, 4)));
        ev.duration = rng.uniform_duration(sim::Duration::sec(2), sim::Duration::sec(10));
        ev.per = rng.uniform_real(0.6, 1.0);
        break;
      }
      case FaultKind::kClockDrift:
        ev.node = pick_node();
        ev.ppm = rng.uniform_real(-150.0, 150.0);
        ev.duration = rng.uniform_duration(sim::Duration::sec(10), sim::Duration::sec(60));
        break;
      case FaultKind::kClockStep:
        ev.node = pick_node();
        ev.step = rng.uniform_duration(sim::Duration::ms(5), sim::Duration::ms(50));
        break;
      case FaultKind::kPressure:
        ev.node = pick_node();
        ev.bytes = static_cast<std::size_t>(rng.uniform_int(2048, 6144));
        ev.duration = rng.uniform_duration(sim::Duration::sec(5), sim::Duration::sec(15));
        break;
    }
    out.push_back(ev);
  }
  return out;
}

}  // namespace mgap::fault
