#include "src/fuzz/generator.h"

#include <algorithm>
#include <sstream>

#include "src/fuzz/entropy.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/store/kv_store.h"
#include "src/store/nbt.h"
#include "src/store/record_log.h"

namespace nymix {
namespace {

// --- decoder payload builders ---------------------------------------------
// Decoder bugs live at the boundary of validity, so payloads start from a
// VALID encoding and get structurally mutated, with a minority of raw
// random buffers to keep the header paths honest.

Bytes ValidRecordLog(EntropySource& entropy) {
  RecordLogWriter writer;
  int records = static_cast<int>(entropy.Pick(6));
  for (int i = 0; i < records; ++i) {
    writer.Append(static_cast<uint32_t>(entropy.Pick(32)),
                  entropy.RandomBytes(entropy.Pick(120)));
  }
  return writer.TakeBytes();
}

Bytes ValidKvLog(EntropySource& entropy) {
  KvStore store;
  int puts = static_cast<int>(entropy.Pick(8));
  for (int i = 0; i < puts; ++i) {
    std::string key = "k" + std::to_string(entropy.Pick(4));
    if (entropy.Chance(0.2)) {
      store.Delete(key);
    } else {
      store.Put(key, entropy.RandomBytes(1 + entropy.Pick(60)));
    }
  }
  return store.log();
}

Bytes ValidNbt(EntropySource& entropy) {
  TraceRecorder trace;
  trace.set_enabled(true);
  trace.set_record_wall_time(false);
  MetricsRegistry metrics;
  metrics.set_enabled(true);
  metrics.set_record_wall_time(false);
  int events = static_cast<int>(entropy.Pick(5));
  for (int i = 0; i < events; ++i) {
    trace.AddInstant("fuzz", "e" + std::to_string(i), "fuzz", Millis(static_cast<int64_t>(i)));
    metrics.GetCounter("fuzz.c" + std::to_string(entropy.Pick(3)))->Increment();
  }
  bool with_trace = entropy.Chance(0.8);
  bool with_metrics = entropy.Chance(0.8);
  return EncodeNbt(with_trace ? &trace : nullptr, with_metrics ? &metrics : nullptr);
}

ScenarioStep RandomStepFor(ScenarioFamily family, EntropySource& entropy);

Bytes ValidScenarioText(EntropySource& entropy) {
  // A tiny self-referential scenario: the parser fuzzes itself.
  Scenario inner;
  inner.family = static_cast<ScenarioFamily>(entropy.Pick(5));
  inner.seed = entropy.prng().NextU64();
  inner.topology.shards = static_cast<int>(1 + entropy.Pick(4));
  int steps = static_cast<int>(entropy.Pick(4));
  for (int i = 0; i < steps; ++i) {
    inner.steps.push_back(RandomStepFor(inner.family, entropy));
  }
  return BytesFromString(ScenarioToText(inner));
}

Bytes DecoderPayload(StepKind kind, EntropySource& entropy) {
  Bytes payload;
  if (entropy.Chance(0.25)) {
    payload = entropy.RandomBytes(entropy.Pick(200));  // raw garbage
  } else {
    switch (kind) {
      case StepKind::kDecodeRecordLog:
        payload = ValidRecordLog(entropy);
        break;
      case StepKind::kDecodeKv:
        payload = ValidKvLog(entropy);
        break;
      case StepKind::kDecodeNbt:
        payload = ValidNbt(entropy);
        break;
      case StepKind::kDecodeScenario:
        payload = ValidScenarioText(entropy);
        break;
      default:
        payload = entropy.RandomBytes(64 + entropy.Pick(200));
        break;
    }
    // Usually corrupt; sometimes leave valid (exercises the clean paths
    // and the over-claiming checks on intact inputs).
    if (entropy.Chance(0.8)) {
      entropy.MutateBytes(payload);
    }
  }
  return payload;
}

// --- per-family step menus ------------------------------------------------

ScenarioStep RandomStepFor(ScenarioFamily family, EntropySource& entropy) {
  ScenarioStep step;
  switch (family) {
    case ScenarioFamily::kNet: {
      static constexpr StepKind kMenu[] = {
          StepKind::kNetChannel, StepKind::kNetChannel, StepKind::kNetFlow,
          StepKind::kNetFlow, StepKind::kNetFaultProfile, StepKind::kNetLinkFlap};
      step.kind = kMenu[entropy.Pick(6)];
      step.a = entropy.IntIn(0, 7);
      step.b = entropy.IntIn(0, 400'000);
      step.c = entropy.IntIn(0, 4000);
      step.d = entropy.IntIn(0, 12'000);
      break;
    }
    case ScenarioFamily::kHost: {
      static constexpr StepKind kMenu[] = {
          StepKind::kHostVisit,       StepKind::kHostVisit,
          StepKind::kHostUnionWrite,  StepKind::kHostUnionWrite,
          StepKind::kHostUnionUnlink, StepKind::kHostCrashRecover,
          StepKind::kHostCheckpoint,  StepKind::kHostRelayCrash,
          StepKind::kHostUplinkFlap,  StepKind::kHostScrub};
      step.kind = kMenu[entropy.Pick(10)];
      step.a = entropy.IntIn(0, 15);
      step.b = entropy.IntIn(0, 15);
      step.c = entropy.IntIn(0, 1'000'000);
      step.d = entropy.IntIn(0, 4096);
      if (step.kind == StepKind::kHostScrub) {
        step.payload = entropy.RandomBytes(entropy.Pick(300));
      }
      break;
    }
    case ScenarioFamily::kFleet: {
      static constexpr StepKind kMenu[] = {StepKind::kFleetVmCrash,
                                           StepKind::kFleetVmCrash,
                                           StepKind::kFleetUplinkFlap,
                                           StepKind::kFleetRelayCrash};
      step.kind = kMenu[entropy.Pick(4)];
      step.a = entropy.IntIn(0, 7);
      step.b = entropy.IntIn(0, 30'000);
      step.c = entropy.IntIn(0, 30'000);
      step.d = entropy.IntIn(100, 5000);
      break;
    }
    case ScenarioFamily::kDecoder: {
      static constexpr StepKind kMenu[] = {
          StepKind::kDecodeRecordLog, StepKind::kDecodeKv, StepKind::kDecodeNbt,
          StepKind::kDecodeScenario, StepKind::kScrubBytes};
      step.kind = kMenu[entropy.Pick(5)];
      step.a = entropy.IntIn(0, 2);
      step.payload = DecoderPayload(step.kind, entropy);
      break;
    }
    case ScenarioFamily::kParallel: {
      // Burst-heavy: channels are only interesting when traffic actually
      // collides on their promised windows.
      static constexpr StepKind kMenu[] = {
          StepKind::kParChannel, StepKind::kParChannel, StepKind::kParBurst,
          StepKind::kParBurst,   StepKind::kParBurst,   StepKind::kParEcho};
      step.kind = kMenu[entropy.Pick(6)];
      step.a = entropy.IntIn(0, 7);
      step.b = entropy.IntIn(0, 7);
      step.c = entropy.IntIn(0, 3000);
      step.d = entropy.IntIn(0, 2000);
      break;
    }
    case ScenarioFamily::kAdversary: {
      // Plant-heavy: the interesting behavior is whether a planted isolation
      // failure survives the observer's analyzers, so most steps toggle the
      // plant; workload/churn steps vary what the taps get to see.
      static constexpr StepKind kMenu[] = {
          StepKind::kAdvPlant, StepKind::kAdvPlant, StepKind::kAdvPlant,
          StepKind::kAdvWorkload, StepKind::kAdvWorkload, StepKind::kAdvChurn};
      step.kind = kMenu[entropy.Pick(6)];
      step.a = entropy.IntIn(0, 7);
      step.b = entropy.IntIn(0, 7);
      break;
    }
  }
  return step;
}

}  // namespace

Scenario GenerateScenario(uint64_t seed, const GeneratorOptions& options) {
  EntropySource entropy(seed);
  Scenario scenario;
  scenario.seed = seed;

  if (options.family.has_value()) {
    scenario.family = *options.family;
  } else {
    // Weighted: decoder scenarios are ~milliseconds, simulation families
    // ~tens of milliseconds; spend most draws where iteration is cheap.
    size_t roll = entropy.Pick(12);
    scenario.family = roll < 4    ? ScenarioFamily::kDecoder
                      : roll < 6  ? ScenarioFamily::kNet
                      : roll < 8  ? ScenarioFamily::kHost
                      : roll < 10 ? ScenarioFamily::kFleet
                                  : ScenarioFamily::kParallel;
  }

  // Family-forked streams: a draw-count change in one family's generator
  // never reshuffles another family's scenarios for the same seed.
  EntropySource stream = entropy.Fork(ScenarioFamilyName(scenario.family));

  ScenarioTopology& t = scenario.topology;
  t.shards = static_cast<int>(1 + stream.Pick(4));
  t.threads = static_cast<int>(1 + stream.Pick(8));
  t.nym_count = static_cast<int>(1 + stream.Pick(4));
  t.nyms_per_host = static_cast<int>(1 + stream.Pick(3));
  t.visits = static_cast<int>(1 + stream.Pick(3));
  t.generations = static_cast<int>(1 + stream.Pick(2));
  t.echo_deadline_ms = static_cast<int>(300 + 100 * stream.Pick(15));
  t.checkpoint_roundtrip =
      scenario.family == ScenarioFamily::kHost && stream.Chance(0.35);

  int max_steps = std::max(1, options.max_steps);
  int count = static_cast<int>(1 + stream.Pick(static_cast<size_t>(max_steps)));
  scenario.steps.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    scenario.steps.push_back(RandomStepFor(scenario.family, stream));
  }
  return scenario;
}

}  // namespace nymix
