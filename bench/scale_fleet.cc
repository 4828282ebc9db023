// Fleet-scale wall-clock benchmark: how fast does the simulator itself run
// as the modeled deployment grows? N nyms are spread over N/8 hosts (the
// §5.2 16 GB desktop comfortably fits 8 nymboxes), each host with live KSM
// scanning, a private test Tor deployment, and a Tor-fetch browsing
// workload with nym churn (terminate + replace). This is the harness for
// the incremental hot paths (docs/performance.md): KSM delta scans,
// dirty-driven fair-share rescheduling, and the event-loop node pool.
//
// Usage:
//   scale_fleet [--n=8,64,256,1024] [--mode=both|incremental|full]
//               [--full-recompute] [--out=BENCH_scale.json] [--seed=13]
//               [--threads=1,8] [--shards=8] [--topology=isolated|crossed]
//               [--warm-start[=CKPT]] [--stats-out=...] [--trace-out=...]
//               [--trace-format=json|nbt]
//
// --warm-start restores every fleet's base images from a deterministic
// image checkpoint (src/store) instead of rebuilding them — O(changed):
// only an image whose (name, seed, size) identity is missing from the
// checkpoint gets cold-built (and written back, so the next run is warm).
// The checkpoint file defaults to BENCH_scale.ckpt. Image content is a
// pure function of its identity, so warm and cold runs produce
// byte-identical traces — CI's warm-start smoke compares the SHA-256s.
// Each run records "checkpoint_restore_ms" (time spent in the restore
// path) and each threaded point records "trace_encode_ms" (trace
// serialization cost); tools/bench_diff.py gates both warn-only.
//
// --mode=both (default) runs every N in both modes and reports the
// wall-clock speedup; --full-recompute is shorthand for --mode=full (the
// pre-incremental recompute-the-world reference). Virtual-time results are
// mode-independent: the incremental paths are exact, so a --trace-out from
// an incremental run is byte-identical to one from a full run (asserted by
// tests/determinism_test.cc).
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
// shard_skew_events, outbox_depth).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_stats.h"
#include "src/core/fleet.h"
#include "src/core/nym_manager.h"
#include "src/crypto/sha256.h"
#include "src/store/file_io.h"
#include "src/store/image_checkpoint.h"
#include "src/store/kv_store.h"
#include "src/util/thread_pool.h"
#include "src/workload/website.h"

using namespace nymix;

namespace {

constexpr char kUsage[] =
    "usage: scale_fleet [--n=8,64,256,1024] [--mode=both|incremental|full]\n"
    "                   [--full-recompute] [--out=BENCH_scale.json] [--seed=13]\n"
    "                   [--threads=1,8] [--shards=8] [--topology=isolated|crossed]\n"
    "                   [--warm-start[=CKPT]] [--stats-out=...] [--trace-out=...]\n"
    "                   [--trace-format=json|nbt]\n";

constexpr int kNymsPerHost = 8;
constexpr int kVisitsPerGeneration = 2;
constexpr int kGenerations = 2;  // one churn (terminate + replace) per slot

// One host cluster: a 16 GB machine, its own test Tor deployment, and a
// destination site. Per-cluster Tor keeps flow competition host-local (the
// real contention is each host's 10 Mbit uplink anyway) instead of welding
// the whole fleet into one connected component.
struct Cluster {
  std::unique_ptr<HostMachine> host;
  std::unique_ptr<TorNetwork> tor;
  std::unique_ptr<NymManager> manager;
  std::unique_ptr<Website> site;
};

struct SlotState {
  Nym* nym = nullptr;
  int visits_done = 0;
  int generation = 0;
  bool finished = false;
};

struct PointResult {
  int n = 0;
  double wall_seconds = 0;
  uint64_t events = 0;
  double events_per_sec = 0;
  double sim_seconds = 0;
  uint64_t visits = 0;
  uint64_t churns = 0;
  uint64_t waterfills_full = 0;
  uint64_t waterfills_component = 0;
  uint64_t waterfill_skips = 0;
  uint64_t ksm_memories_merged = 0;
  uint64_t ksm_memories_skipped = 0;
  uint64_t ksm_pages_sharing = 0;
  double checkpoint_restore_ms = 0;
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
  double checkpoint_restore_ms = 0;
};

// Warm-start context: the deterministic image checkpoint store, loaded
// once per process and saved back after any cold build refreshed it.
struct WarmStart {
  bool enabled = false;
  std::string path = "BENCH_scale.ckpt";
  KvStore store;
};

// Restores (or on a miss builds + checkpoints) one distribution image per
// requested copy. Each copy decodes to a distinct object: shards must not
// share an image (the Merkle-verification memo is per object and two
// shards verifying concurrently must not race on it). Returns the wall
// milliseconds spent, which is the "checkpoint_restore_ms" column.
double AcquireWarmImages(WarmStart& warm, int copies,
                         std::vector<std::shared_ptr<BaseImage>>& out) {
  // nymlint:allow(determinism-wallclock): restore cost is the measurement; it never feeds virtual time
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < copies; ++i) {
    auto image = AcquireDistributionImage(warm.store, kFleetImageName, kFleetImageSeed,
                                          kFleetImageSizeBytes);
    NYMIX_CHECK_MSG(image.ok(), image.status().ToString().c_str());
    out.push_back(std::move(*image));
  }
  // nymlint:allow(determinism-wallclock): restore cost is the measurement; it never feeds virtual time
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

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
                                     uint64_t seed, WarmStart* warm, bool crossed,
                                     const ShardPlacement& placement) {
  FleetOptions options;
  options.nym_count = n;
  if (crossed) {
    options.topology = FleetTopology::kCrossed;
    options.placement = placement;
  }
  double restore_ms = 0;
  if (warm != nullptr && warm->enabled) {
    restore_ms = AcquireWarmImages(*warm, shards, options.images);
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

  result.checkpoint_restore_ms = restore_ms;
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

class Fleet {
 public:
  // `image` null means cold-build; a warm start passes a restored image.
  Fleet(Simulation& sim, int nym_count, uint64_t seed, bool full_recompute,
        std::shared_ptr<BaseImage> image = nullptr)
      : sim_(sim), nym_count_(nym_count), think_prng_(seed ^ 0x5ca1e) {
    sim_.flows().set_full_recompute(full_recompute);
    int hosts = (nym_count + kNymsPerHost - 1) / kNymsPerHost;
    TorNetwork::Config tor_config;
    tor_config.relay_count = 6;
    tor_config.guard_count = 2;
    tor_config.exit_count = 2;
    // One distribution image for the whole fleet, like every host booting
    // from a copy of the same Nymix release stick. Sharing the object also
    // shares the memoized whole-image Merkle verification across hosts.
    if (image == nullptr) {
      image = BaseImage::CreateDistribution(kFleetImageName, kFleetImageSeed, kFleetImageSizeBytes);
    }
    for (int c = 0; c < hosts; ++c) {
      auto cluster = std::make_unique<Cluster>();
      cluster->host = std::make_unique<HostMachine>(sim_, HostConfig{});
      cluster->host->ksm().set_full_rescan(full_recompute);
      cluster->tor = std::make_unique<TorNetwork>(sim_, tor_config);
      cluster->manager =
          std::make_unique<NymManager>(*cluster->host, image, cluster->tor.get(), nullptr);
      WebsiteProfile profile;
      profile.name = "site-" + std::to_string(c);
      profile.domain = "site" + std::to_string(c) + ".example.com";
      cluster->site = std::make_unique<Website>(sim_, profile);
      cluster->host->ksm().Start(Seconds(2));
      clusters_.push_back(std::move(cluster));
    }
    slots_.resize(static_cast<size_t>(nym_count));
  }

  void Run() {
    for (int i = 0; i < nym_count_; ++i) {
      SpawnNym(i);
    }
    sim_.RunUntil([this] { return finished_slots_ == nym_count_; });
    for (auto& cluster : clusters_) {
      cluster->host->ksm().Stop();
    }
  }

  uint64_t visits() const { return total_visits_; }
  uint64_t churns() const { return total_churns_; }
  const std::vector<std::unique_ptr<Cluster>>& clusters() const { return clusters_; }

 private:
  Cluster& ClusterOf(int slot) { return *clusters_[static_cast<size_t>(slot / kNymsPerHost)]; }

  void SpawnNym(int slot) {
    SlotState& state = slots_[static_cast<size_t>(slot)];
    std::string name = "c" + std::to_string(slot / kNymsPerHost) + "-s" +
                       std::to_string(slot % kNymsPerHost) + "-g" +
                       std::to_string(state.generation);
    ClusterOf(slot).manager->CreateNym(
        name, NymManager::CreateOptions{}, [this, slot](Result<Nym*> nym, NymStartupReport) {
          NYMIX_CHECK_MSG(nym.ok(), nym.status().ToString().c_str());
          slots_[static_cast<size_t>(slot)].nym = *nym;
          slots_[static_cast<size_t>(slot)].visits_done = 0;
          VisitNext(slot);
        });
  }

  void VisitNext(int slot) {
    SlotState& state = slots_[static_cast<size_t>(slot)];
    state.nym->browser()->Visit(*ClusterOf(slot).site, [this, slot](Result<SimTime> done) {
      NYMIX_CHECK_MSG(done.ok(), done.status().ToString().c_str());
      ++total_visits_;
      SlotState& state = slots_[static_cast<size_t>(slot)];
      ++state.visits_done;
      // Think time before the next action; acting from a fresh event also
      // means churn never tears a nym down from inside its own callback.
      SimDuration think = Millis(500 + static_cast<SimDuration>(think_prng_.NextBelow(1500)));
      sim_.loop().ScheduleAfter(think, [this, slot] { Advance(slot); });
    });
  }

  void Advance(int slot) {
    SlotState& state = slots_[static_cast<size_t>(slot)];
    if (state.visits_done < kVisitsPerGeneration) {
      VisitNext(slot);
      return;
    }
    ++state.generation;
    NYMIX_CHECK(ClusterOf(slot).manager->TerminateNym(state.nym).ok());
    state.nym = nullptr;
    if (state.generation >= kGenerations) {
      state.finished = true;
      ++finished_slots_;
      return;
    }
    ++total_churns_;
    SpawnNym(slot);
  }

  Simulation& sim_;
  int nym_count_;
  Prng think_prng_;
  std::vector<std::unique_ptr<Cluster>> clusters_;
  std::vector<SlotState> slots_;
  int finished_slots_ = 0;
  uint64_t total_visits_ = 0;
  uint64_t total_churns_ = 0;
};

PointResult RunPoint(BenchStats& stats, bool attach_obs, int n, uint64_t seed,
                     bool full_recompute, WarmStart* warm) {
  std::shared_ptr<BaseImage> warm_image;
  double restore_ms = 0;
  if (warm != nullptr && warm->enabled) {
    std::vector<std::shared_ptr<BaseImage>> images;
    restore_ms = AcquireWarmImages(*warm, 1, images);
    warm_image = std::move(images.front());
  }
  // nymlint:allow(determinism-wallclock): wall-clock throughput is the measurement; it never feeds virtual time
  auto wall_start = std::chrono::steady_clock::now();
  Simulation sim(seed);
  if (attach_obs) {
    stats.Attach(sim);
    // The trace must be byte-identical between incremental and full modes
    // (that is the equivalence contract this bench demonstrates), so keep
    // the simulator's wall-clock self-profiling args out of it.
    stats.obs().trace.set_record_wall_time(false);
  }
  Fleet fleet(sim, n, seed, full_recompute, std::move(warm_image));
  fleet.Run();
  // nymlint:allow(determinism-wallclock): wall-clock throughput is the measurement; it never feeds virtual time
  auto wall_end = std::chrono::steady_clock::now();

  PointResult result;
  result.n = n;
  result.wall_seconds = std::chrono::duration<double>(wall_end - wall_start).count();
  result.events = sim.loop().events_executed();
  result.events_per_sec =
      result.wall_seconds > 0 ? static_cast<double>(result.events) / result.wall_seconds : 0;
  result.sim_seconds = static_cast<double>(sim.now()) / 1e6;
  result.visits = fleet.visits();
  result.churns = fleet.churns();
  result.waterfills_full = sim.flows().waterfills_full();
  result.waterfills_component = sim.flows().waterfills_component();
  result.waterfill_skips = sim.flows().waterfill_skips();
  for (const auto& cluster : fleet.clusters()) {
    result.ksm_memories_merged += cluster->host->ksm().memories_merged();
    result.ksm_memories_skipped += cluster->host->ksm().memories_skipped();
    result.ksm_pages_sharing += cluster->host->ksm().stats().pages_sharing;
  }
  result.checkpoint_restore_ms = restore_ms;
  return result;
}

void WriteJson(const std::string& path, const std::string& mode, const std::string& topology,
               uint64_t seed, bool warm_start, const std::vector<PointResult>& incremental,
               const std::vector<PointResult>& full,
               const std::vector<ThreadedPointResult>& threaded) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "scale_fleet: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  // The JsonWriter owns every separator, so the file is canonical JSON in
  // every mode combination (a stray hand-written comma here once broke
  // every downstream json.load of the bench artifact).
  JsonWriter w(out);
  w.BeginObject();
  w.Key("bench");
  w.String("scale_fleet");
  w.Key("mode");
  w.String(mode);
  w.Key("topology");
  w.String(topology);
  w.Key("seed");
  w.Number(seed);
  w.Key("warm_start");
  w.Bool(warm_start);

  auto emit_points = [&](const char* key, const std::vector<PointResult>& points) {
    w.Key(key);
    w.BeginArray();
    for (const PointResult& p : points) {
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
      w.Key("waterfills_full");
      w.Number(p.waterfills_full);
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
      w.Key("checkpoint_restore_ms");
      w.Number(p.checkpoint_restore_ms, 3);
      w.EndObject();
    }
    w.EndArray();
  };

  if (!incremental.empty()) {
    emit_points("incremental", incremental);
  }
  if (!full.empty()) {
    emit_points("full_recompute", full);
    w.Key("speedup");
    w.BeginArray();
    for (size_t i = 0; i < full.size(); ++i) {
      double speedup = 0;
      if (i < incremental.size() && incremental[i].wall_seconds > 0) {
        speedup = full[i].wall_seconds / incremental[i].wall_seconds;
      }
      w.BeginObject(JsonWriter::kCompact);
      w.Key("n");
      w.Number(full[i].n);
      w.Key("wall_clock");
      w.Number(speedup, 2);
      w.EndObject();
    }
    w.EndArray();
  }
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
      w.Key("checkpoint_restore_ms");
      w.Number(p.checkpoint_restore_ms, 3);
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
  BenchStats stats("scale_fleet", argc, argv);
  std::vector<int> ns = {8, 64, 256, 1024};
  std::vector<int> threads_list;
  int shards = 8;
  std::string mode = "both";
  std::string topology = "isolated";
  std::string out_path = "BENCH_scale.json";
  uint64_t seed = 13;
  WarmStart warm;
  // Bad CLI input is a usage error (exit 2, matching the bench_stats
  // --trace-format contract), not an internal invariant failure — a typo'd
  // sweep script should get a usage line, not an abort or a default run.
  auto usage_error = [](const std::string& message) {
    std::fprintf(stderr, "scale_fleet: %s\n%s", message.c_str(), kUsage);
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (arg == "--help") {
      std::printf("%s", kUsage);
      return 0;
    } else if (flag == "--n" || flag == "--threads") {
      std::optional<std::vector<int>> list = ParseIntList(value, 1);
      if (!list.has_value()) {
        return usage_error("malformed " + flag + " \"" + value +
                           "\" (want positive integers, comma-separated)");
      }
      (flag == "--n" ? ns : threads_list) = std::move(*list);
    } else if (flag == "--shards") {
      std::optional<std::vector<int>> list = ParseIntList(value, 1);
      if (!list.has_value() || list->size() != 1) {
        return usage_error("malformed --shards \"" + value + "\" (want a positive integer)");
      }
      shards = list->front();
    } else if (flag == "--seed") {
      std::optional<uint64_t> parsed = ParseUint64(value);
      if (!parsed.has_value()) {
        return usage_error("malformed --seed \"" + value + "\"");
      }
      seed = *parsed;
    } else if (flag == "--mode") {
      mode = value;
    } else if (flag == "--topology") {
      topology = value;
    } else if (arg == "--full-recompute") {
      mode = "full";
    } else if (flag == "--out") {
      out_path = value;
    } else if (arg == "--warm-start") {
      warm.enabled = true;
    } else if (flag == "--warm-start") {
      warm.enabled = true;
      warm.path = value;
    } else if (!BenchStats::OwnsFlag(argv[i])) {
      return usage_error("unknown argument \"" + arg + "\"");
    }
  }
  if (warm.enabled) {
    // Tolerant load: a missing file means a first (all-cold) run, and a
    // torn tail costs only the damaged records — the cold-build fallback
    // regenerates whatever is missing and the save below repairs the file.
    Result<Bytes> existing = ReadFileBytes(warm.path);
    if (existing.ok()) {
      auto recovered = KvStore::Recover(*existing);
      NYMIX_CHECK_MSG(recovered.ok(), recovered.status().ToString().c_str());
      if (!recovered->clean) {
        std::fprintf(stderr, "scale_fleet: checkpoint %s recovered with %zu bytes lost\n",
                     warm.path.c_str(), recovered->lost_bytes);
      }
      warm.store = std::move(recovered->store);
    }
    std::printf("# warm start: checkpoint %s (%zu entries)\n", warm.path.c_str(),
                warm.store.size());
  }
  if (mode != "both" && mode != "incremental" && mode != "full") {
    std::fprintf(stderr, "scale_fleet: unknown --mode \"%s\"\n", mode.c_str());
    std::fprintf(stderr, "usage: scale_fleet [--mode=both|incremental|full]\n");
    return 2;
  }
  if (topology != "isolated" && topology != "crossed") {
    std::fprintf(stderr, "scale_fleet: unknown --topology \"%s\"\n", topology.c_str());
    std::fprintf(stderr, "usage: scale_fleet [--topology=isolated|crossed]\n");
    return 2;
  }
  const bool crossed = topology == "crossed";
  // Tracing/metrics change the per-event work (and trace layout is
  // per-simulation-attach), so obs-attached runs are for equivalence
  // checking, not for headline throughput.
  const bool attach_obs = stats.stats_requested() || stats.trace_requested();

  std::printf("# scale_fleet: %d-nym-per-host clusters, live KSM, Tor fetch + churn\n",
              kNymsPerHost);
  std::printf("%-6s %-12s %12s %12s %14s\n", "n", "mode", "wall (s)", "events", "events/s");

  std::vector<PointResult> incremental;
  std::vector<PointResult> full;
  for (int n : ns) {
    if (mode != "full") {
      PointResult p = RunPoint(stats, attach_obs, n, seed, /*full_recompute=*/false, &warm);
      std::printf("%-6d %-12s %12.3f %12llu %14.0f\n", n, "incremental", p.wall_seconds,
                  static_cast<unsigned long long>(p.events), p.events_per_sec);
      incremental.push_back(p);
    }
    if (mode != "incremental") {
      PointResult p = RunPoint(stats, attach_obs, n, seed, /*full_recompute=*/true, &warm);
      std::printf("%-6d %-12s %12.3f %12llu %14.0f\n", n, "full", p.wall_seconds,
                  static_cast<unsigned long long>(p.events), p.events_per_sec);
      full.push_back(p);
    }
    if (mode == "both") {
      std::printf("%-6d %-12s %12.2fx\n", n, "speedup",
                  full.back().wall_seconds / incremental.back().wall_seconds);
    }
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
            RunThreadedPoint(stats, n, shards, threads, seed, &warm, crossed, placement);
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

  WriteJson(out_path, mode, topology, seed, warm.enabled, incremental, full, threaded);
  std::printf("# wrote %s\n", out_path.c_str());

  if (warm.enabled) {
    Status saved = warm.store.Save(warm.path);
    NYMIX_CHECK_MSG(saved.ok(), saved.ToString().c_str());
    std::printf("# warm start: saved checkpoint %s (%zu entries, %zu bytes)\n", warm.path.c_str(),
                warm.store.size(), warm.store.log().size());
  }

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
