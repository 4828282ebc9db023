// Fleet-scale wall-clock benchmark: how fast does the simulator itself run
// as the modeled deployment grows? N nyms are spread over N/8 hosts (the
// §5.2 16 GB desktop comfortably fits 8 nymboxes), each host with live KSM
// scanning, a private test Tor deployment, and a Tor-fetch browsing
// workload with nym churn (terminate + replace). This is the harness for
// the host-cost hot paths (docs/performance.md): closed-form KSM merging,
// dirty-driven fair-share rescheduling, and the event-loop node pool.
//
// Usage (scale_fleet --help lists every flag and its default):
//   scale_fleet [--n=8,64,256,1024] [--out=BENCH_scale.json] [--seed=13]
//               [--threads=1,8] [--shards=8] [--topology=isolated|crossed]
//               [--stats-out=<path>] [--trace-out=<path>] [--trace-format=json|nbt]
//
// Every run is one ShardedFleet (src/core/fleet.h) booting the interned
// distribution image. The serial "incremental" series runs it on a
// one-shard, one-thread plan; the threaded series below on --shards. The
// fair-share rates' reference is the test-side model in tests/flow_model.h.
//
// --threads=T1,T2,... additionally runs each N through the sharded
// parallel executor (src/parallel) at each thread count, with --shards
// fixing the partition (default 8). Every threaded point records a SHA-256
// of its merged trace and metrics dump; the bench FAILS (exit 1) if any
// two thread counts disagree for the same N — that is the executor's
// byte-identity contract, checked on every bench run. The JSON gains
// "threaded", "threads_speedup" and "hardware_threads" entries;
// tools/bench_diff.py gates the speedup only when the recorded hardware
// actually has the cores to show one.
//
// --topology=crossed runs the threaded series over the cross-shard fleet
// workload (src/core/fleet.h, FleetTopology::kCrossed): every page visit is
// followed by a windowed cloud fetch served from the next shard over a
// CrossShardChannel ring, so the executor's adaptive horizons, mailboxes
// and placement actually get exercised (cross_deliveries > 0, epochs > 1).
// Each n first runs a serial calibration pass whose observed per-host
// weights feed BalancedPlacement; the resulting placement is shared by
// every thread count of that n. Threaded rows gain "topology",
// "cloud_fetches" and the parallel.* executor columns (barrier_wait_ms,
// shard_skew_events, outbox_depth). Each threaded point also records
// "trace_encode_ms" (trace serialization cost), which tools/bench_diff.py
// gates warn-only.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_stats.h"
#include "src/core/fleet.h"
#include "src/crypto/sha256.h"
#include "src/util/thread_pool.h"

using namespace nymix;

namespace {

struct PointResult {
  int n = 0;
  double wall_seconds = 0;
  uint64_t events = 0;
  double events_per_sec = 0;
  double sim_seconds = 0;
  uint64_t visits = 0;
  uint64_t churns = 0;
  uint64_t waterfills_component = 0;
  uint64_t waterfill_skips = 0;
  uint64_t ksm_memories_merged = 0;
  uint64_t ksm_memories_skipped = 0;
  uint64_t ksm_pages_sharing = 0;
};

struct ThreadedPointResult {
  int n = 0;
  int shards = 0;
  int threads = 0;
  double wall_seconds = 0;
  uint64_t events = 0;
  double events_per_sec = 0;
  uint64_t epochs = 0;
  uint64_t cross_deliveries = 0;
  uint64_t cloud_fetches = 0;
  uint64_t visits = 0;
  uint64_t churns = 0;
  uint64_t ksm_pages_sharing = 0;
  uint64_t fleet_pages_sharing = 0;
  uint64_t cross_host_extra_sharing = 0;
  // parallel.* executor self-metrics (see sharded_sim.h) — wall-clock and
  // load-shape diagnostics, reported per point, never part of the digests.
  double barrier_wait_ms = 0;
  double shard_skew_events = 0;
  double outbox_depth = 0;
  std::string trace_sha256;
  std::string stats_sha256;
  double trace_encode_ms = 0;
};

std::string HexDigest(const Sha256Digest& digest) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(digest.size() * 2);
  for (uint8_t byte : digest) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xf]);
  }
  return out;
}

// Crossed topology only: a serial calibration run (threads=1, no
// observability) whose per-host activity weights feed BalancedPlacement.
// The resulting placement is part of the experiment definition and is
// shared by every thread count of the same n — weights from a fixed serial
// run are a pure function of (seed, shards, n), so the placement is too.
ShardPlacement CalibratePlacement(int n, int shards, uint64_t seed) {
  FleetOptions options;
  options.nym_count = n;
  options.topology = FleetTopology::kCrossed;
  ShardedSimulation sharded(seed, ShardPlan{shards, 1});
  ShardedFleet fleet(sharded, options, seed);
  fleet.Run();
  return BalancedPlacement(fleet.HostWeights(), shards, seed);
}

// One sharded-executor run. Observability is always attached here (wall
// clock off): the per-point digests ARE the byte-identity check, so the
// threaded series measures obs-attached throughput — both thread counts
// pay the same cost, which is what the speedup ratio needs.
ThreadedPointResult RunThreadedPoint(BenchStats& stats, int n, int shards, int threads,
                                     uint64_t seed, bool crossed,
                                     const ShardPlacement& placement) {
  FleetOptions options;
  options.nym_count = n;
  if (crossed) {
    options.topology = FleetTopology::kCrossed;
    options.placement = placement;
  }
  // nymlint:allow(determinism-wallclock): wall-clock throughput is the measurement; it never feeds virtual time
  auto wall_start = std::chrono::steady_clock::now();
  ShardedSimulation sharded(seed, ShardPlan{shards, threads});
  sharded.EnableObservability(/*record_wall_time=*/false);
  ShardedFleet fleet(sharded, options, seed);
  fleet.Run();
  // nymlint:allow(determinism-wallclock): wall-clock throughput is the measurement; it never feeds virtual time
  auto wall_end = std::chrono::steady_clock::now();
  sharded.MergeObservability();

  ThreadedPointResult result;
  result.n = n;
  result.shards = shards;
  result.threads = sharded.thread_count();
  result.wall_seconds = std::chrono::duration<double>(wall_end - wall_start).count();
  result.events = fleet.events_executed();
  result.events_per_sec =
      result.wall_seconds > 0 ? static_cast<double>(result.events) / result.wall_seconds : 0;
  result.epochs = sharded.epochs();
  result.cross_deliveries = sharded.cross_deliveries();
  result.cloud_fetches = fleet.cloud_fetches();
  result.barrier_wait_ms = sharded.barrier_wait_ms_mean();
  result.shard_skew_events = sharded.shard_skew_events_mean();
  result.outbox_depth = sharded.outbox_depth_max();
  result.visits = fleet.visits();
  result.churns = fleet.churns();
  result.ksm_pages_sharing = fleet.ksm_pages_sharing();
  FleetKsmStats fleet_ksm = fleet.ReconcileKsm();
  result.fleet_pages_sharing = fleet_ksm.pages_sharing;
  result.cross_host_extra_sharing = fleet_ksm.cross_host_extra_sharing();

  // nymlint:allow(determinism-wallclock): serialization cost is the trace_encode_ms measurement
  auto encode_start = std::chrono::steady_clock::now();
  result.trace_sha256 = HexDigest(Sha256::Hash(sharded.merged().trace.ToChromeJson()));
  // nymlint:allow(determinism-wallclock): serialization cost is the trace_encode_ms measurement
  auto encode_end = std::chrono::steady_clock::now();
  result.trace_encode_ms =
      std::chrono::duration<double, std::milli>(encode_end - encode_start).count();
  std::ostringstream metrics_json;
  sharded.merged().metrics.WriteJson(metrics_json);
  result.stats_sha256 = HexDigest(Sha256::Hash(metrics_json.str()));

  // Fold the run into the --trace-out / --stats-out artifacts: the merged
  // stream depends only on (seed, shards, workload), so traces written at
  // different --threads diff byte-identical.
  if (stats.trace_requested()) {
    stats.obs().trace.set_enabled(true);
    stats.obs().trace.set_record_wall_time(false);
    std::vector<const TraceRecorder*> parts;
    for (int s = 0; s < sharded.shard_count(); ++s) {
      parts.push_back(&sharded.shard_obs(s).trace);
    }
    stats.obs().trace.MergeShardTraces(parts);
    stats.obs().trace.NextTimeline();
  }
  if (stats.stats_requested()) {
    stats.obs().metrics.MergeFrom(sharded.merged().metrics);
  }
  return result;
}

// One serial run: the same fleet on a one-shard, one-thread plan.
PointResult RunPoint(BenchStats& stats, bool attach_obs, int n, uint64_t seed) {
  FleetOptions options;
  options.nym_count = n;
  // nymlint:allow(determinism-wallclock): wall-clock throughput is the measurement; it never feeds virtual time
  auto wall_start = std::chrono::steady_clock::now();
  ShardedSimulation sharded(seed, ShardPlan{1, 1});
  if (attach_obs) {
    stats.Attach(sharded.shard(0));
    // Keep the simulator's wall-clock self-profiling args out of the trace
    // so same-seed runs write byte-identical --trace-out files.
    stats.obs().trace.set_record_wall_time(false);
  }
  ShardedFleet fleet(sharded, options, seed);
  fleet.Run();
  // nymlint:allow(determinism-wallclock): wall-clock throughput is the measurement; it never feeds virtual time
  auto wall_end = std::chrono::steady_clock::now();

  PointResult result;
  result.n = n;
  result.wall_seconds = std::chrono::duration<double>(wall_end - wall_start).count();
  result.events = fleet.events_executed();
  result.events_per_sec =
      result.wall_seconds > 0 ? static_cast<double>(result.events) / result.wall_seconds : 0;
  result.sim_seconds = static_cast<double>(sharded.shard(0).now()) / 1e6;
  result.visits = fleet.visits();
  result.churns = fleet.churns();
  result.waterfills_component = fleet.waterfills_component();
  result.waterfill_skips = fleet.waterfill_skips();
  result.ksm_memories_merged = fleet.ksm_memories_merged();
  result.ksm_memories_skipped = fleet.ksm_memories_skipped();
  result.ksm_pages_sharing = fleet.ksm_pages_sharing();
  return result;
}

void WriteJson(const std::string& path, const std::string& topology, uint64_t seed,
               const std::vector<PointResult>& incremental,
               const std::vector<ThreadedPointResult>& threaded) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "scale_fleet: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  // The JsonWriter owns every separator, so the file is canonical JSON in
  // every flag combination (a stray hand-written comma here once broke
  // every downstream json.load of the bench artifact).
  JsonWriter w(out);
  w.BeginObject();
  w.Key("bench");
  w.String("scale_fleet");
  w.Key("topology");
  w.String(topology);
  w.Key("seed");
  w.Number(seed);

  w.Key("incremental");
  w.BeginArray();
  for (const PointResult& p : incremental) {
    w.BeginObject(JsonWriter::kCompact);
    w.Key("n");
    w.Number(p.n);
    w.Key("wall_seconds");
    w.Number(p.wall_seconds, 4);
    w.Key("events");
    w.Number(p.events);
    w.Key("events_per_sec");
    w.Number(p.events_per_sec, 1);
    w.Key("sim_seconds");
    w.Number(p.sim_seconds, 2);
    w.Key("visits");
    w.Number(p.visits);
    w.Key("churns");
    w.Number(p.churns);
    w.Key("waterfills_component");
    w.Number(p.waterfills_component);
    w.Key("waterfill_skips");
    w.Number(p.waterfill_skips);
    w.Key("ksm_memories_merged");
    w.Number(p.ksm_memories_merged);
    w.Key("ksm_memories_skipped");
    w.Number(p.ksm_memories_skipped);
    w.Key("ksm_pages_sharing");
    w.Number(p.ksm_pages_sharing);
    w.EndObject();
  }
  w.EndArray();
  if (!threaded.empty()) {
    // hardware_threads lets bench_diff.py gate the parallel speedup on
    // machines that can actually exhibit one (CI containers are often
    // single-core; byte-identity is still checked there).
    w.Key("shards");
    w.Number(threaded.front().shards);
    w.Key("hardware_threads");
    w.Number(ThreadPool::HardwareThreads());
    w.Key("threaded");
    w.BeginArray();
    for (const ThreadedPointResult& p : threaded) {
      w.BeginObject(JsonWriter::kCompact);
      w.Key("n");
      w.Number(p.n);
      w.Key("threads");
      w.Number(p.threads);
      w.Key("topology");
      w.String(topology);
      w.Key("wall_seconds");
      w.Number(p.wall_seconds, 4);
      w.Key("events");
      w.Number(p.events);
      w.Key("events_per_sec");
      w.Number(p.events_per_sec, 1);
      w.Key("epochs");
      w.Number(p.epochs);
      w.Key("cross_deliveries");
      w.Number(p.cross_deliveries);
      w.Key("cloud_fetches");
      w.Number(p.cloud_fetches);
      w.Key("visits");
      w.Number(p.visits);
      w.Key("churns");
      w.Number(p.churns);
      w.Key("ksm_pages_sharing");
      w.Number(p.ksm_pages_sharing);
      w.Key("fleet_pages_sharing");
      w.Number(p.fleet_pages_sharing);
      w.Key("cross_host_extra_sharing");
      w.Number(p.cross_host_extra_sharing);
      w.Key("barrier_wait_ms");
      w.Number(p.barrier_wait_ms, 3);
      w.Key("shard_skew_events");
      w.Number(p.shard_skew_events, 1);
      w.Key("outbox_depth");
      w.Number(p.outbox_depth, 0);
      w.Key("trace_encode_ms");
      w.Number(p.trace_encode_ms, 3);
      w.Key("trace_sha256");
      w.String(p.trace_sha256);
      w.Key("stats_sha256");
      w.String(p.stats_sha256);
      w.EndObject();
    }
    w.EndArray();
    w.Key("threads_speedup");
    w.BeginArray();
    // Speedup and identity of each point vs the threads=1 run of the same n
    // (the serial reference execution of the same sharded structure).
    for (const ThreadedPointResult& p : threaded) {
      const ThreadedPointResult* base = nullptr;
      for (const ThreadedPointResult& candidate : threaded) {
        if (candidate.n == p.n && candidate.threads == 1) {
          base = &candidate;
          break;
        }
      }
      if (base == nullptr || p.threads == 1) {
        continue;
      }
      double speedup = p.wall_seconds > 0 ? base->wall_seconds / p.wall_seconds : 0;
      bool identical =
          p.trace_sha256 == base->trace_sha256 && p.stats_sha256 == base->stats_sha256;
      w.BeginObject(JsonWriter::kCompact);
      w.Key("n");
      w.Number(p.n);
      w.Key("threads");
      w.Number(p.threads);
      w.Key("topology");
      w.String(topology);
      w.Key("wall_clock");
      w.Number(speedup, 2);
      w.Key("trace_identical");
      w.Bool(identical);
      w.EndObject();
    }
    w.EndArray();
  }
  w.EndObject();
  out << "\n";
  NYMIX_CHECK_MSG(w.balanced(), "scale_fleet: unbalanced JSON emitter");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> ns = {8, 64, 256, 1024};
  std::vector<int> threads_list;
  int shards = 8;
  std::string topology = "isolated";
  std::string out_path = "BENCH_scale.json";
  uint64_t seed = 13;
  FlagSet flags("scale_fleet");
  flags.IntList("n", &ns, 1, "fleet sizes");
  flags.String("out", &out_path, "<path>", "JSON artifact");
  flags.Uint64("seed", &seed, "experiment seed");
  flags.IntList("threads", &threads_list, 1, "thread counts of the sharded-executor rows");
  flags.Int("shards", &shards, 1, "executor shards of the threaded series");
  flags.Choice("topology", &topology, {"isolated", "crossed"}, "workload of the threaded rows");
  BenchStats stats(std::move(flags), argc, argv);
  const bool crossed = topology == "crossed";
  // Tracing/metrics change the per-event work (and trace layout is
  // per-simulation-attach), so obs-attached runs are for equivalence
  // checking, not for headline throughput.
  const bool attach_obs = stats.stats_requested() || stats.trace_requested();

  std::printf("# scale_fleet: %d-nym-per-host clusters, live KSM, Tor fetch + churn\n",
              FleetOptions{}.nyms_per_host);
  std::printf("%-6s %-12s %12s %12s %14s\n", "n", "series", "wall (s)", "events", "events/s");

  std::vector<PointResult> incremental;
  for (int n : ns) {
    PointResult p = RunPoint(stats, attach_obs, n, seed);
    std::printf("%-6d %-12s %12.3f %12llu %14.0f\n", n, "incremental", p.wall_seconds,
                static_cast<unsigned long long>(p.events), p.events_per_sec);
    incremental.push_back(p);
  }

  std::vector<ThreadedPointResult> threaded;
  bool identity_ok = true;
  if (!threads_list.empty()) {
    std::printf("# sharded executor: %d shards, topology: %s, hardware threads: %d\n", shards,
                topology.c_str(), ThreadPool::HardwareThreads());
    for (int n : ns) {
      ShardPlacement placement;
      if (crossed) {
        // Calibrate once per n; every thread count then runs the exact
        // same (seed, shards, placement) experiment, so the identity
        // cross-check below still compares like with like.
        placement = CalibratePlacement(n, shards, seed);
        std::printf("%-6d %-12s placement=%s\n", n, "calibrate", placement.Label().c_str());
      }
      ThreadedPointResult base;  // first thread count of this n (by value:
                                 // threaded reallocates as points append)
      for (int threads : threads_list) {
        ThreadedPointResult p =
            RunThreadedPoint(stats, n, shards, threads, seed, crossed, placement);
        std::printf("%-6d %-12s %12.3f %12llu %14.0f  trace=%.12s\n", n,
                    ("threads=" + std::to_string(threads)).c_str(), p.wall_seconds,
                    static_cast<unsigned long long>(p.events), p.events_per_sec,
                    p.trace_sha256.c_str());
        if (base.trace_sha256.empty()) {
          base = p;
        } else if (p.trace_sha256 != base.trace_sha256 ||
                   p.stats_sha256 != base.stats_sha256) {
          // The contract this whole subsystem exists for: thread count is
          // execution mechanics and must not move a single output byte.
          std::fprintf(stderr,
                       "scale_fleet: DETERMINISM VIOLATION at n=%d: threads=%d "
                       "disagrees with threads=%d (trace %s vs %s)\n",
                       n, p.threads, base.threads, p.trace_sha256.c_str(),
                       base.trace_sha256.c_str());
          identity_ok = false;
        }
        threaded.push_back(std::move(p));
      }
    }
  }

  WriteJson(out_path, topology, seed, incremental, threaded);
  std::printf("# wrote %s\n", out_path.c_str());

  for (size_t i = 0; i < incremental.size(); ++i) {
    std::string prefix = "n" + std::to_string(incremental[i].n);
    stats.Set(prefix + ".events_per_sec", incremental[i].events_per_sec);
    stats.Set(prefix + ".wall_seconds", incremental[i].wall_seconds);
  }
  for (const ThreadedPointResult& p : threaded) {
    std::string prefix = "n" + std::to_string(p.n) + ".t" + std::to_string(p.threads);
    stats.Set(prefix + ".events_per_sec", p.events_per_sec);
    stats.Set(prefix + ".wall_seconds", p.wall_seconds);
  }
  int rc = stats.Finish();
  return identity_ok ? rc : 1;
}
