// Fair-share scheduler micro-benchmarks: the cost of one nym's flow leaving
// its host's fair-share component and a fresh one joining it, which is what
// FlowScheduler's dirty-driven Reschedule does between two completions of a
// fleet run. Each iteration cancels one started flow (a component pass over
// the flows left), starts its replacement (a skip: the new flow is still in
// its setup RTT) and runs the setup event (a component pass with the new
// flow joined). Virtual time never moves, so no flow progresses or
// completes and Settle does no work: the number is the net layer's own
// churn cost.
//
// Every host is Tor-shaped: each of its nyms has a route over its own
// virtual wire, NAT hop and guard access link plus the host's shared
// 10 Mbit uplink, so 4 nyms make one component of 4 flows over 13 links.
// Args: hosts, nyms per host. One host is the bare component; 8 hosts of 4
// nyms is a 32-flow shard, where a pass still touches one component but
// the completion scan walks every flow.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "src/net/simulation.h"

namespace nymix {
namespace {

void BM_FlowChurn(benchmark::State& state) {
  const int hosts = static_cast<int>(state.range(0));
  const int nyms = static_cast<int>(state.range(1));
  constexpr uint64_t kBytes = uint64_t{1} << 40;  // never finishes: time stands still
  Simulation sim(1);
  FlowScheduler& flows = sim.flows();
  std::vector<Route> routes;
  for (int h = 0; h < hosts; ++h) {
    const std::string host = "h" + std::to_string(h);
    Link* uplink = sim.CreateLink(host + ".uplink", 0, 10'000'000);
    for (int n = 0; n < nyms; ++n) {
      const std::string nym = host + ".n" + std::to_string(n);
      Link* wire = sim.CreateLink(nym + ".wire", 0, 1'000'000'000);
      Link* nat = sim.CreateLink(nym + ".nat", 0, 100'000'000);
      // Distinct guard speeds keep the filling multi-round.
      Link* guard = sim.CreateLink(nym + ".guard", 0, 1'000'000 + 500'000 * n);
      routes.push_back(Route::Through({wire, nat, uplink, guard}));
    }
  }
  std::vector<FlowId> ids;
  for (const Route& route : routes) {
    ids.push_back(flows.StartFlow(route, kBytes, 1.0, /*stall_timeout=*/0, nullptr));
  }
  sim.loop().RunUntil(sim.now());  // zero-latency routes: every setup ends now

  const uint64_t passes_before = flows.waterfills_component();
  size_t slot = 0;
  for (auto _ : state) {
    flows.CancelFlow(ids[slot]);
    ids[slot] = flows.StartFlow(routes[slot], kBytes, 1.0, /*stall_timeout=*/0, nullptr);
    benchmark::DoNotOptimize(sim.loop().RunUntil(sim.now()));
    slot = (slot + 1) % ids.size();
  }
  state.counters["flows"] = static_cast<double>(ids.size());
  state.counters["passes_per_iter"] =
      static_cast<double>(flows.waterfills_component() - passes_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_FlowChurn)->Args({1, 4})->Args({8, 4});

}  // namespace
}  // namespace nymix

BENCHMARK_MAIN();
