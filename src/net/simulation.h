// Simulation: the root object owning virtual time, the flow scheduler, the
// Internet, link storage and the experiment's PRNG stream. Every higher
// layer (hypervisor, anonymizers, Nym Manager) hangs off one Simulation so
// an entire Figure run is a single deterministic event-driven execution.
#ifndef SRC_NET_SIMULATION_H_
#define SRC_NET_SIMULATION_H_

#include <memory>
#include <vector>

#include "src/net/flow.h"
#include "src/net/internet.h"
#include "src/util/fault.h"
#include "src/util/prng.h"

namespace nymix {

class Simulation {
 public:
  explicit Simulation(uint64_t seed);

  EventLoop& loop() { return loop_; }
  SimTime now() const { return loop_.now(); }
  FlowScheduler& flows() { return flows_; }
  Internet& internet() { return internet_; }
  Prng& prng() { return prng_; }
  FaultInjector& faults() { return faults_; }

  // Creates and owns a link.
  Link* CreateLink(std::string name, SimDuration latency, uint64_t bandwidth_bps);

  // Drives the loop until `done` holds; CHECKs that it was reached (a stuck
  // experiment is a bug, not a timeout).
  void RunUntil(const std::function<bool()>& done);
  void RunFor(SimDuration duration) { loop_.RunUntil(loop_.now() + duration); }

 private:
  EventLoop loop_;
  Prng prng_;
  // Before flows_, which takes its loss-abort seed from it.
  FaultInjector faults_;
  FlowScheduler flows_;
  Internet internet_;
  std::vector<std::unique_ptr<Link>> links_;
};

}  // namespace nymix

#endif  // SRC_NET_SIMULATION_H_
