#include "tests/golden_scenarios.h"

#include <sstream>
#include <utility>

#include "src/core/fleet.h"
#include "src/core/testbed.h"
#include "src/fuzz/runner.h"
#include "src/fuzz/scenario.h"
#include "src/obs/observability.h"
#include "src/store/file_io.h"
#include "src/store/nbt.h"

namespace nymix {
namespace {

// Each scenario is a run helper handing its finished recorder (and, for the
// fleet, the merged registry) to an emitter, so the JSON and NBT goldens
// are two encodings of one run rather than two runs that could drift.
template <typename Emit>
auto RunFig5(Emit emit) {
  Simulation sim(5);
  Observability obs;
  obs.EnableAll();
  obs.trace.set_record_wall_time(false);
  obs.metrics.set_record_wall_time(false);
  sim.loop().set_observability(&obs);

  Link* uplink = sim.CreateLink("uplink", Millis(40), 10'000'000);
  Link* relay = sim.CreateLink("relay", Millis(5), 100'000'000);
  Link* exit = sim.CreateLink("exit", Millis(5), 50'000'000);

  int done = 0;
  for (int f = 0; f < 3; ++f) {
    sim.flows().StartFlow(Route::Through({uplink, relay, exit}), 400'000 + 100'000 * f, 1.12,
                          [&done](SimTime) { ++done; });
  }
  // A competing short flow on the uplink only, plus a flap mid-transfer.
  sim.flows().StartFlow(Route::Through({uplink}), 250'000, 1.0, [&done](SimTime) { ++done; });
  sim.loop().ScheduleAt(Millis(400), [relay] { relay->SetDown(true); });
  sim.loop().ScheduleAt(Millis(700), [relay] { relay->SetDown(false); });
  sim.RunUntil([&done] { return done == 4; });

  return emit(obs.trace, static_cast<const MetricsRegistry*>(nullptr));
}

template <typename Emit>
auto RunFig7(Emit emit) {
  Testbed bed(7);
  Observability obs;
  obs.EnableAll();
  obs.trace.set_record_wall_time(false);
  obs.metrics.set_record_wall_time(false);
  bed.sim().loop().set_observability(&obs);

  Nym* nym = bed.CreateNymBlocking("golden");
  NYMIX_CHECK(bed.VisitBlocking(nym, bed.sites().ByName("BBC")).ok());
  NYMIX_CHECK(bed.manager().TerminateNym(nym).ok());

  return emit(obs.trace, static_cast<const MetricsRegistry*>(nullptr));
}

template <typename Emit>
auto RunScaleFleet(Emit emit) {
  ShardedSimulation sharded(11, ShardPlan{/*shards=*/2, /*threads=*/1});
  sharded.EnableObservability(/*record_wall_time=*/false);
  FleetOptions options;
  options.nym_count = 4;
  options.nyms_per_host = 2;
  ShardedFleet fleet(sharded, options, 11);
  fleet.Run();
  sharded.MergeObservability();

  // Trace plus the metrics dump: the fleet scenario is the one place the
  // corpus covers the merged multi-shard registry format too.
  return emit(sharded.merged().trace, &sharded.merged().metrics);
}

// The crossed topology's cloud-fetch chain: every visit is followed by a
// windowed fetch served from the next shard, on a placement calibrated from
// a serial run (as bench/scale_fleet does), so the golden pins the
// placement, the ring's send windows and the cross-shard deliveries.
template <typename Emit>
auto RunScaleFleetCrossed(Emit emit) {
  FleetOptions options;
  options.nym_count = 8;
  options.nyms_per_host = 2;
  options.topology = FleetTopology::kCrossed;
  constexpr int kShards = 2;
  {
    ShardedSimulation calibration(17, ShardPlan{kShards, /*threads=*/1});
    ShardedFleet probe(calibration, options, 17);
    probe.Run();
    options.placement = BalancedPlacement(probe.HostWeights(), kShards, 17);
  }
  ShardedSimulation sharded(17, ShardPlan{kShards, /*threads=*/1});
  sharded.EnableObservability(/*record_wall_time=*/false);
  ShardedFleet fleet(sharded, options, 17);
  fleet.Run();
  sharded.MergeObservability();
  return emit(sharded.merged().trace, &sharded.merged().metrics);
}

// Promoted fuzz survivors: the checked-in .nymfuzz corpus entry is the
// single source of truth for the scenario; its base (threads=1) run is
// re-emitted through the fuzz runner's golden hook. A digest drift shows
// up here as a reviewable golden diff AND in `nymfuzz --corpus` replay.
template <typename Emit>
auto RunCorpusSurvivor(const char* basename, Emit emit) {
  std::string path = std::string(NYMIX_CORPUS_DIR) + "/" + basename;
  Result<Bytes> data = ReadFileBytes(path);
  NYMIX_CHECK_MSG(data.ok(), "golden corpus survivor unreadable: " + path);
  Result<ReproFile> repro = ReproFromText(StringFromBytes(*data));
  NYMIX_CHECK_MSG(repro.ok(), "golden corpus survivor unparsable: " + path);
  decltype(emit(std::declval<const TraceRecorder&>(),
                static_cast<const MetricsRegistry*>(nullptr))) out;
  Status ran = RunScenarioGolden(
      repro->scenario, [&out, &emit](const TraceRecorder& trace, const MetricsRegistry& metrics) {
        out = emit(trace, &metrics);
      });
  NYMIX_CHECK_MSG(ran.ok(), "golden corpus survivor failed to run: " + path);
  return out;
}

std::string EmitJson(const TraceRecorder& trace, const MetricsRegistry* metrics) {
  std::ostringstream out;
  out << trace.ToChromeJson();
  if (metrics != nullptr) {
    metrics->WriteJson(out);
  }
  return out.str();
}

Bytes EmitNbt(const TraceRecorder& trace, const MetricsRegistry* metrics) {
  return EncodeNbt(&trace, metrics);
}

std::string Fig5Small() { return RunFig5(EmitJson); }
std::string Fig7Small() { return RunFig7(EmitJson); }
std::string ScaleFleetSmall() { return RunScaleFleet(EmitJson); }
std::string ScaleFleetCrossedSmall() { return RunScaleFleetCrossed(EmitJson); }
Bytes Fig5SmallNbt() { return RunFig5(EmitNbt); }
Bytes Fig7SmallNbt() { return RunFig7(EmitNbt); }
Bytes ScaleFleetSmallNbt() { return RunScaleFleet(EmitNbt); }
Bytes ScaleFleetCrossedSmallNbt() { return RunScaleFleetCrossed(EmitNbt); }

constexpr char kParallelBurst[] = "parallel-burst-collision-23.nymfuzz";
constexpr char kParallelEcho[] = "parallel-windowed-echo-17.nymfuzz";
constexpr char kAdversaryCookie[] = "adversary-planted-cookie-23.nymfuzz";

std::string ParallelBurstCollision() { return RunCorpusSurvivor(kParallelBurst, EmitJson); }
std::string ParallelWindowedEcho() { return RunCorpusSurvivor(kParallelEcho, EmitJson); }
std::string AdversaryPlantedCookie() { return RunCorpusSurvivor(kAdversaryCookie, EmitJson); }
Bytes ParallelBurstCollisionNbt() { return RunCorpusSurvivor(kParallelBurst, EmitNbt); }
Bytes ParallelWindowedEchoNbt() { return RunCorpusSurvivor(kParallelEcho, EmitNbt); }
Bytes AdversaryPlantedCookieNbt() { return RunCorpusSurvivor(kAdversaryCookie, EmitNbt); }

}  // namespace

const std::vector<GoldenScenario>& GoldenScenarios() {
  static const std::vector<GoldenScenario> kScenarios = {
      {"fig5_small", &Fig5Small, &Fig5SmallNbt},
      {"fig7_small", &Fig7Small, &Fig7SmallNbt},
      {"scale_fleet_small", &ScaleFleetSmall, &ScaleFleetSmallNbt},
      {"scale_fleet_crossed_small", &ScaleFleetCrossedSmall, &ScaleFleetCrossedSmallNbt},
      {"parallel_burst_collision_23", &ParallelBurstCollision, &ParallelBurstCollisionNbt},
      {"parallel_windowed_echo_17", &ParallelWindowedEcho, &ParallelWindowedEchoNbt},
      {"adversary_planted_cookie_23", &AdversaryPlantedCookie, &AdversaryPlantedCookieNbt},
  };
  return kScenarios;
}

}  // namespace nymix
