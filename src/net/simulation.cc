#include "src/net/simulation.h"

namespace nymix {

Simulation::Simulation(uint64_t seed)
    : prng_(seed),
      // The fault seed is derived, not `seed` itself, so fault streams stay
      // decorrelated from the experiment's main Prng stream.
      faults_(loop_, Mix64(seed ^ Fnv1a64("nymix.faults"))),
      flows_(loop_, faults_.SeedFor("net.flows")),
      internet_(loop_) {}

Link* Simulation::CreateLink(std::string name, SimDuration latency, uint64_t bandwidth_bps) {
  links_.push_back(std::make_unique<Link>(loop_, std::move(name), latency, bandwidth_bps));
  links_.back()->set_flow_scheduler(&flows_);
  return links_.back().get();
}

void Simulation::RunUntil(const std::function<bool()>& done) {
  bool reached = loop_.RunUntilCondition(done);
  NYMIX_CHECK_MSG(reached, "simulation went idle before the condition held");
}

}  // namespace nymix
