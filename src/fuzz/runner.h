// Scenario runner: executes one Scenario under the invariant-oracle suite
// and reports what happened.
//
// Contract (the shrinker and replay depend on every clause):
//   - Total: any scenario — any step order, any argument values, any
//     payload bytes — runs to completion without crashing the harness.
//     Out-of-range arguments are clamped or wrapped; references to things
//     that don't exist (a nym that failed to boot, a channel never
//     created) degrade to logged no-ops.
//   - Deterministic: the same scenario produces the same RunReport,
//     including the same outcome digest, every time, on every machine.
//   - Oracle-tagged: a failure is reported as the FIRST oracle that
//     tripped plus a human-readable detail line; the report's ok flag
//     never reflects expected-and-handled errors (a visit failing with a
//     Status during an uplink flap is normal life, not a finding).
#ifndef SRC_FUZZ_RUNNER_H_
#define SRC_FUZZ_RUNNER_H_

#include <functional>
#include <string>
#include <vector>

#include "src/fuzz/oracle.h"
#include "src/fuzz/scenario.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace nymix {

struct RunnerOptions {
  // Deliberately sabotage the CommVM policy of every nym the host family
  // boots: wire packets are echoed back to the AnonVM instead of dropped.
  // The nat-isolation oracle MUST catch this — the planted-leak self-test
  // (CI and tests/fuzz_test.cc) proves the oracle is live, not vacuous.
  bool plant_nat_leak = false;
  // Oracle names (see AllOracles()) to skip.
  std::vector<std::string> disabled_oracles;
};

RunReport RunScenario(const Scenario& scenario, const RunnerOptions& options = {});

// Golden-trace promotion hook (tests/golden_scenarios.cc): runs the
// scenario's base threads=1 simulation — no oracles, no rerun — and hands
// the merged trace/metrics to `emit` before teardown, so a clean corpus
// survivor can be re-emitted as a tests/golden/ JSON/NBT pair. Supported
// for the simulation-backed families that merge shard observability
// (parallel, adversary); other families return InvalidArgumentError.
// nymlint:allow(dead-api): the tests/golden corpus is written by golden_gen and checked through it
Status RunScenarioGolden(
    const Scenario& scenario,
    const std::function<void(const TraceRecorder& trace, const MetricsRegistry& metrics)>& emit);

}  // namespace nymix

#endif  // SRC_FUZZ_RUNNER_H_
