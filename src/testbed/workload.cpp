#include "testbed/workload.hpp"

#include "sim/simulator.hpp"

namespace mgap::testbed {

Consumer::Consumer(net::IpStack& stack) : server_{stack} {
  server_.on_get("gap", [](const app::CoapMessage& /*req*/, const net::Ipv6Addr& /*from*/) {
    app::CoapMessage rsp;
    rsp.code = app::kCodeContent;
    return rsp;
  });
}

Producer::Producer(sim::Simulator& sim, net::IpStack& stack, Config config, Metrics& metrics)
    : sim_{sim},
      stack_{stack},
      config_{config},
      metrics_{metrics},
      // Ephemeral source port per node keeps responses addressable.
      client_{sim, stack, static_cast<std::uint16_t>(49152 + stack.node())},
      rng_{sim.make_rng()} {
  // After both sequential streams (client_, rng_) are claimed, so the cc
  // config's dedicated RTO stream cannot disturb the layout.
  client_.set_cc(config_.cc);
}

void Producer::start() {
  if (running_) return;
  running_ = true;
  sim_.schedule_in(config_.start_delay + next_delay(), [this] { tick(); });
}

sim::Duration Producer::next_delay() {
  const sim::Duration lo = sim::max(config_.interval - config_.jitter, sim::Duration::ms(1));
  const sim::Duration hi = config_.interval + config_.jitter;
  return rng_.uniform_duration(lo, hi);
}

void Producer::tick() {
  if (!running_) return;
  const NodeId me = stack_.node();
  const sim::TimePoint sent_at = sim_.now();
  metrics_.on_sent(me, sent_at);

  std::vector<std::uint8_t> payload(config_.payload_len, 0xA5);
  auto on_response = [this, me, sent_at](const app::CoapMessage& /*rsp*/,
                                         sim::Duration rtt) {
    metrics_.on_acked(me, sent_at, rtt);
  };
  if (config_.confirmable) {
    client_.con_get(config_.consumer, "gap", std::move(payload), std::move(on_response));
  } else {
    client_.get(config_.consumer, "gap", std::move(payload), std::move(on_response));
  }

  // Bound the pending-token table on long runs.
  if (++ticks_ % 64 == 0) client_.expire_pending(sim::Duration::sec(120));

  sim_.schedule_in(next_delay(), [this] { tick(); });
}

}  // namespace mgap::testbed
