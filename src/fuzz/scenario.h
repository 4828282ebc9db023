// Scenario AST: what the fuzzer generates, the runner executes, the
// shrinker minimizes, and .nymfuzz files serialize.
//
// Design constraints (docs/fuzzing.md spells out the contract):
//   - A scenario is plain data: a family, a seed, a topology block, and a
//     flat list of steps. No pointers, no closures — so structural passes
//     (delete a step, halve a count) are trivial and always meaningful.
//   - The runner is CLOSED under these edits: any step list, any argument
//     values, any payload bytes must execute without crashing the harness
//     itself (arguments are clamped/wrapped, dangling references become
//     no-ops). The shrinker depends on this: every candidate it proposes
//     is runnable by construction.
//   - Serialization is line-based text, not binary: shrunk repros get
//     reviewed by humans and checked into tests/fuzz_corpus/, so they must
//     diff cleanly in git.
#ifndef SRC_FUZZ_SCENARIO_H_
#define SRC_FUZZ_SCENARIO_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/status.h"

namespace nymix {

// One scenario family = one harness in src/fuzz/runner.cc.
enum class ScenarioFamily {
  kNet,       // cross-shard channel storms under the parallel executor
  kHost,      // single-host nym lifecycle: visits, crashes, checkpoints
  kFleet,     // ShardedFleet churn with fault schedules
  kDecoder,   // malformed bytes against NYMLOG/KvStore/NBT/scenario decoders
  kParallel,  // windowed-schedule channel storms: adaptive-horizon executor
  kAdversary, // passive-observer leak quantification over planted fleets
};

std::string_view ScenarioFamilyName(ScenarioFamily family);
Result<ScenarioFamily> ParseScenarioFamily(std::string_view name);

enum class StepKind {
  // --- net family -----------------------------------------------------
  kNetChannel,       // a=shard_a, b=shard_b offset, c=latency_ms, d=bandwidth_kbps
  kNetFaultProfile,  // a=channel index, b=loss permille, c=spike permille
  kNetFlow,          // a=shard, b=bytes, c=flow count
  kNetLinkFlap,      // a=shard, b=down_at_ms, c=duration_ms
  // --- host family (sequential ops) -----------------------------------
  kHostVisit,         // a=nym index, b=site index
  kHostCrashRecover,  // a=nym index
  kHostCheckpoint,    // a=nym index
  kHostRelayCrash,    // a=relay index, b=restart_after_ms
  kHostUplinkFlap,    // a=duration_ms
  kHostUnionWrite,    // a=nym index, b=path id, c=content seed, d=size bytes
  kHostUnionUnlink,   // a=nym index, b=path id
  kHostScrub,         // a=paranoia level, payload=file bytes
  // --- fleet family (virtual-time fault schedule) ----------------------
  kFleetVmCrash,     // a=host, b=at_ms
  kFleetUplinkFlap,  // a=host, b=down_at_ms, c=duration_ms
  kFleetRelayCrash,  // a=host, b=relay, c=at_ms, d=restart_after_ms
  // --- decoder family (pure byte-level) --------------------------------
  kDecodeRecordLog,  // payload=log bytes
  kDecodeKv,         // payload=kv log bytes
  kDecodeNbt,        // payload=nbt bytes
  kDecodeScenario,   // payload=.nymfuzz text (the parser fuzzes itself)
  kScrubBytes,       // a=paranoia level, payload=file bytes
  // --- parallel family (windowed cross-shard storms) --------------------
  kParChannel,  // a=shard_a, b=shard_b offset, c=latency_ms, d=window_ms (0=free)
  kParBurst,    // a=channel index, b=side (even=A, odd=B), c=at_ms, d=count
  kParEcho,     // a=channel index (both ends echo on promised windows)
  // --- adversary family (observer model leak quantification) ------------
  kAdvPlant,     // a=leak plant (0=none, 1=cookie jar, 2=circuit, 3=scrub)
  kAdvWorkload,  // a=workload mix (0=browse, 1=streaming, 2=upload, 3=mixed)
  kAdvChurn,     // a=churn generations
};

std::string_view StepKindName(StepKind kind);
Result<StepKind> ParseStepKind(std::string_view name);
ScenarioFamily FamilyOfStep(StepKind kind);

struct ScenarioStep {
  StepKind kind = StepKind::kHostVisit;
  int64_t a = 0;
  int64_t b = 0;
  int64_t c = 0;
  int64_t d = 0;
  Bytes payload;

  bool operator==(const ScenarioStep&) const = default;
};

// Shape parameters the runner clamps into safe ranges (see runner.cc);
// serialized so a repro captures the exact shape that failed.
struct ScenarioTopology {
  int shards = 2;
  int threads = 2;  // compared against a 1-thread run by trace-identity
  int nym_count = 2;
  int nyms_per_host = 2;
  int visits = 1;
  int generations = 1;
  int echo_deadline_ms = 1500;
  bool checkpoint_roundtrip = false;  // host family: checkpoint→restore→diff

  bool operator==(const ScenarioTopology&) const = default;
};

struct Scenario {
  ScenarioFamily family = ScenarioFamily::kNet;
  uint64_t seed = 1;
  ScenarioTopology topology;
  std::vector<ScenarioStep> steps;

  bool operator==(const Scenario&) const = default;
};

// --- .nymfuzz text form ----------------------------------------------------
// Line-based: `nymfuzz 1` header, `family`/`seed`/`topology` lines, one
// `step <kind> a=.. b=.. payload=<hex>` line per step, `end`. '#' starts a
// comment. ScenarioFromText is total: arbitrary bytes yield a Status, never
// a crash (the decoder family feeds it its own mutated output).
std::string ScenarioToText(const Scenario& scenario);
Result<Scenario> ScenarioFromText(std::string_view text);

// A repro file is a scenario plus the expectation block `nymfuzz --replay`
// verifies: the oracle that failed (empty = expected clean), a human note,
// and the hex SHA-256 of the run's outcome surface for byte-identity.
struct ReproFile {
  Scenario scenario;
  std::string oracle;
  std::string detail;
  std::string digest;
};

std::string ReproToText(const ReproFile& repro);
Result<ReproFile> ReproFromText(std::string_view text);

}  // namespace nymix

#endif  // SRC_FUZZ_SCENARIO_H_
