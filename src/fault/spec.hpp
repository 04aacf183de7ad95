#pragma once
// Declarative fault events for robustness experiments.
//
// The simulator models the paper's emergent failure mechanism (connection
// shading, section 6); this module adds *controlled* failures so recovery
// behavior — reconnect delay, route repair, PDR collapse and restoration —
// can be measured like the induced-degradation studies on Bluetooth Mesh
// (Rondón et al., Aijaz et al.). Faults are parsed from the experiment
// `key = value` syntax, e.g.
//
//   fault.0 = crash node=3 at=30s reboot_after=5s
//   fault.1 = blackout link=2-5 at=60s for=3s
//   fault.2 = interfere channels=10-14 at=90s for=5s per=0.9
//
// and a chaos mode samples whole fault sequences from a seeded distribution,
// making fault intensity sweepable as a campaign grid axis. Values never
// contain commas (the campaign axis separator).
//
// Each kind's `key=value` fields are rows of one table in spec.cpp: the
// field name, the FaultEvent member it binds, whether it is required, and
// its bounds. The table drives parsing, the allowed-key check, the error
// text, validate() and str(); values go through the experiment-config key
// table's binders (sim/binders.hpp), so a node id, a PER or a duration is
// checked and spelled the same in a `fault.N` value as in a config key, and
// reals render in shortest round-trip form.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/ids.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace mgap::fault {

enum class FaultKind : std::uint8_t {
  kCrash,       // node powers off; optional reboot after `duration`
  kBlackout,    // one link loses every PDU for `duration`
  kAttenuate,   // one link sees extra PER `per` for `duration`
  kInterfere,   // channels [chan_lo, chan_hi] see extra PER `per`
  kClockDrift,  // node's sleep-clock drift is `ppm` while the window is open
  kClockStep,   // node's connection anchors jump by `step` once
  kPressure,    // node's pktbuf loses `bytes` of capacity for `duration`
};

/// One scheduled fault. Which fields are meaningful depends on `kind`; see
/// parse_fault_event() for the per-kind syntax.
struct FaultEvent {
  FaultKind kind{FaultKind::kCrash};
  sim::TimePoint at;
  /// Window length; for kCrash the time until reboot (zero = never reboots).
  sim::Duration duration;
  NodeId node{kInvalidNode};
  NodeId peer{kInvalidNode};  // link faults: the other end
  double per{1.0};            // kAttenuate / kInterfere extra PER
  std::uint8_t chan_lo{0};
  std::uint8_t chan_hi{36};
  double ppm{0.0};            // kClockDrift target drift, in [-1000, 1000]
  sim::Duration step;         // kClockStep displacement

  std::size_t bytes{0};       // kPressure capacity to seize

  /// Spatial scope in meters, for kInterfere and kPressure. 0 scopes
  /// interference to every receiver and pressure to `node`. > 0 applies the
  /// fault to every node within `radius` of `node`'s position — resolved
  /// through the experiment's spatial index, so it requires a generated
  /// world (without one the injector falls back to the radius-0 scope).
  double radius{0.0};

  /// Canonical spec-syntax form; parse_fault_event(str()) round-trips.
  [[nodiscard]] std::string str() const;
};

/// Parses one fault declaration: `<kind> key=value ...` with whitespace-
/// separated tokens; a repeated key's last value wins. Throws
/// std::runtime_error on unknown kinds or keys, missing required keys, or
/// malformed or out-of-bounds values. Accepted per kind:
///   crash       node=N at=T [reboot_after=D]
///   blackout    link=A-B at=T for=D
///   attenuate   link=A-B at=T for=D per=P
///   interfere   channels=LO-HI at=T for=D [per=P] [node=N radius=R]
///   clock_drift node=N at=T ppm=X [for=D]
///   clock_step  node=N at=T step=D
///   pressure    node=N at=T for=D bytes=B [radius=R]
[[nodiscard]] FaultEvent parse_fault_event(std::string_view text);

/// Throws std::runtime_error, with parse_fault_event's text, unless each
/// field of `ev`'s kind meets its bounds and the cross-field rules hold.
void validate(const FaultEvent& ev);

/// Chaos mode: a seeded Poisson process of faults over the experiment
/// horizon, with per-kind parameters drawn from modest distributions. The
/// rate is the sweepable intensity axis (`chaos_rate` in faults per minute).
struct ChaosConfig {
  double rate_per_min{0.0};
  /// Kinds to sample from; empty means all kinds.
  std::vector<FaultKind> kinds;
  [[nodiscard]] bool enabled() const { return rate_per_min > 0.0; }
};

/// Parses a '+'-separated kind list, e.g. "crash+blackout".
[[nodiscard]] std::vector<FaultKind> parse_kind_list(std::string_view text);
[[nodiscard]] std::string render_kind_list(const std::vector<FaultKind>& kinds);

/// Samples a fault sequence from `cfg` over [horizon/10, 9*horizon/10] (the
/// margins let the network form first and leave room for final recovery).
/// Node-scoped faults pick from `nodes`, link faults from `edges`. Fully
/// determined by the rng state, so equal seeds give equal sequences.
[[nodiscard]] std::vector<FaultEvent> sample_chaos(
    const ChaosConfig& cfg, const std::vector<NodeId>& nodes,
    const std::vector<std::pair<NodeId, NodeId>>& edges, sim::Duration horizon,
    sim::Rng& rng);

}  // namespace mgap::fault
