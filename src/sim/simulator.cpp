#include "sim/simulator.hpp"

namespace mgap::sim {

std::uint64_t Simulator::run_until(TimePoint until) {
  std::uint64_t ran = 0;
  while (!queue_.empty()) {
    if (queue_.next_time() > until) break;
    auto fired = queue_.pop();
    now_ = fired.at;
    fired.action();
    ++ran;
  }
  if (now_ < until && until.count_ns() != std::numeric_limits<std::int64_t>::max()) {
    now_ = until;
  }
  return ran;
}

}  // namespace mgap::sim
