// ShardedFleet: the scale_fleet workload as a configuration of FleetDriver
// (src/core/fleet_driver.h) — the "core accepts a shard plan" integration
// point.
//
// N nyms over ceil(N/8) hosts, each host a cluster with its own test Tor
// deployment and one destination site, every nym visiting that site with
// think time and one churn (terminate + replace) per slot. Hosts go to
// shards by the placement (round-robin by creation index when empty), so
// the partition — and therefore every per-shard seed stream — depends only
// on (seed, plan.shards, placement), never on the thread count.
//
// What the fleet adds to the driver:
//   * KSM: each host's daemon scans periodically while its shard has active
//     slots; when a shard's last slot finishes, the shard-finished hook
//     stops that shard's daemons (a periodic daemon would otherwise keep its
//     loop from ever going idle). A shard-local event snapshots each host's
//     content histogram at ksm_snapshot_time; ReconcileKsm() runs the
//     deterministic cross-host reconcile (src/hv/ksm_fleet.h) over them in
//     host creation order.
//   * Crossed topology: the post-visit hook interleaves a windowed cloud
//     fetch, served from the next shard over a CrossShardChannel ring,
//     before the driver's Advance.
#ifndef SRC_CORE_FLEET_H_
#define SRC_CORE_FLEET_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/fleet_driver.h"
#include "src/hv/ksm_fleet.h"

namespace nymix {

// How the fleet's clusters relate across shards.
//
// kIsolated is the historical workload: every cluster is self-contained,
// shards never exchange a packet, and the executor runs one run-to-idle
// epoch per shard. kCrossed adds the inter-host traffic the paper's
// deployment actually has — after every page visit the nym performs a
// cloud fetch (directory/consensus-style round) whose service lives on the
// NEXT shard, reached over a CrossShardChannel ring. Fetches depart only
// on promised send windows (SendSchedule; one request window and one reply
// window per cloud_window period), which is what lets the executor's
// adaptive horizon run each shard a full half-window of dense local work
// per epoch instead of trickling along at channel latency. Crossed fleets
// are also heterogeneous: each host draws a seeded visit multiplier in
// [1, cloud_weight_max], so shard load skews unless a BalancedPlacement
// (shard_plan.h) repacks hosts by observed weight.
//
// A crossed fleet on a 1-shard plan degrades to kIsolated (there is no
// second shard to host the cloud), so small plans remain runnable.
enum class FleetTopology {
  kIsolated,
  kCrossed,
};

struct FleetOptions {
  int nym_count = 8;
  int nyms_per_host = 8;  // §5.2: a 16 GB desktop comfortably fits 8 nymboxes
  FleetTopology topology = FleetTopology::kIsolated;
  // Crossed-topology shape: the window period shared by the request and
  // reply send schedules, the ring channel's wire parameters, and the
  // upper bound of the per-host visit multiplier.
  SimDuration cloud_window = Seconds(5);
  SimDuration cloud_latency = Millis(200);
  uint64_t cloud_bandwidth_bps = 50'000'000;
  int cloud_weight_max = 3;
  // Host -> shard assignment. Empty = round-robin by creation index (the
  // historical partition). A non-empty placement must have exactly one
  // entry per host; it becomes part of the experiment definition and its
  // label is stamped into the merged trace (sharded_sim.h).
  ShardPlacement placement;
  int visits_per_generation = 2;
  int generations = 2;  // one churn (terminate + replace) per slot
  // Reference-mode toggles (flow waterfill / KSM rescan), for wall-clock
  // comparison benches. Virtual-time results are identical either way.
  bool full_recompute = false;
  SimDuration ksm_interval = Seconds(2);
  // Virtual time at which each host snapshots its KSM content histogram
  // for the cross-host reconcile (shard-local event, so it is exact and
  // thread-count-invariant). Mid-run by default: reconciling at the end
  // would see only wiped memory, since every nym terminates.
  SimDuration ksm_snapshot_time = Seconds(30);
  // Per-cluster test Tor deployment; small so flow competition stays
  // host-local (the real contention is each host's uplink anyway).
  TorNetwork::Config tor = MakeClusterTorConfig();

  // Warm start: pre-built per-shard base images (restored from a
  // src/store/image_checkpoint). Used when the count matches the shard
  // plan; otherwise the fleet cold-builds one image per shard. Image
  // content is a pure function of (name, seed, size) either way, so the
  // run's event stream — and trace bytes — do not depend on which path
  // supplied the images.
  std::vector<std::shared_ptr<BaseImage>> images;

  static TorNetwork::Config MakeClusterTorConfig() {
    TorNetwork::Config config;
    config.relay_count = 6;
    config.guard_count = 2;
    config.exit_count = 2;
    return config;
  }
};

class ShardedFleet : private FleetHooks {
 public:
  // Builds every cluster up front (constructors only schedule shard-local
  // events). `sharded` must outlive the fleet; its plan fixes the host
  // partition.
  ShardedFleet(ShardedSimulation& sharded, const FleetOptions& options, uint64_t seed);
  ~ShardedFleet() override;

  // Spawns every slot's first nym and drives the executor to quiescence.
  void Run() { driver_.Run(); }

  // --- Scenario hooks (src/fuzz) ---------------------------------------
  // Schedules a VM crash + recovery on `host` at virtual time `at`: the
  // first slot on that host with a live nym is crashed where it stands and
  // rebooted through NymManager::RecoverNym. Shard-local (the event runs on
  // the owning shard's loop), so thread count still cannot change a byte.
  // Call before Run().
  void ScheduleVmCrash(int host, SimTime at) { driver_.ScheduleVmCrash(host, at); }

  // Per-host internals for scenario fault schedules (uplink flaps, relay
  // crashes). Only shard-local events may touch them while running.
  HostMachine& host_machine(int host) { return *driver_.cluster(host).host; }
  TorNetwork& tor(int host) { return *driver_.cluster(host).tor; }

  // Post-run aggregates, summed over shards in shard-id order.
  uint64_t visits() const { return driver_.Total(&FleetDriver::ShardState::visits); }
  uint64_t churns() const { return driver_.Total(&FleetDriver::ShardState::churns); }
  // Crossed topology: completed cloud fetch rounds (one request + one reply
  // crossing shards each).
  uint64_t cloud_fetches() const { return driver_.Total(&FleetDriver::ShardState::cloud_fetches); }
  // Observed per-host activity (visits + cloud fetches + churns) — the
  // weight vector BalancedPlacement bin-packs on. Meaningful after Run();
  // hosts that did nothing report weight 1 so the pack stays total.
  std::vector<double> HostWeights() const { return driver_.HostWeights(); }
  // Fault-path aggregates: failed visits that were retried, failed creates
  // that were retried, slots abandoned after the create-retry budget, and
  // VM crash/recovery cycles executed by ScheduleVmCrash.
  uint64_t visit_failures() const {
    return driver_.Total(&FleetDriver::ShardState::visit_failures);
  }
  uint64_t create_failures() const {
    return driver_.Total(&FleetDriver::ShardState::create_failures);
  }
  uint64_t slots_abandoned() const {
    return driver_.Total(&FleetDriver::ShardState::slots_abandoned);
  }
  uint64_t vm_recoveries() const { return driver_.Total(&FleetDriver::ShardState::vm_recoveries); }
  uint64_t events_executed() const;
  uint64_t waterfills_full() const;
  uint64_t waterfills_component() const;
  uint64_t waterfill_skips() const;
  uint64_t ksm_memories_merged() const;
  uint64_t ksm_memories_skipped() const;
  uint64_t ksm_pages_sharing() const;

  // Deterministic cross-host KSM reconcile over the per-host histograms
  // snapshotted at ksm_snapshot_time, in host creation order.
  FleetKsmStats ReconcileKsm() const;

  int host_count() const { return driver_.host_count(); }

  // Per-host access for checkpoint/restore (src/core/fleet_checkpoint).
  NymManager& manager(int host) { return *driver_.cluster(host).manager; }
  int shard_of_host(int host) const { return driver_.cluster(host).shard; }

 private:
  // One cross-shard cloud edge: shard s's nyms fetch from the gateway
  // hosted on shard (s+1) % K over `channel`. Sinks are owned here; the
  // channel belongs to the executor.
  struct CloudEdge {
    CrossShardChannel* channel = nullptr;
    std::unique_ptr<PacketSink> gateway;  // lives in the server shard
    std::unique_ptr<PacketSink> client;   // lives in the client shard
  };

  // FleetHooks.
  void BuildCluster(int index, FleetCluster& cluster, Simulation& sim) override;
  bool ClaimAfterVisit(int slot, int epoch) override;
  void OnShardFinished(int shard) override;

  void SendCloudFetch(int slot, int epoch);
  void HandleCloudReply(const std::string& annotation);

  ShardedSimulation& sharded_;
  FleetOptions options_;
  uint64_t seed_ = 0;
  bool crossed_ = false;  // kCrossed effective (needs >= 2 shards)
  // Per host, captured at ksm_snapshot_time by a shard-local event.
  std::vector<std::map<uint64_t, uint64_t>> ksm_snapshots_;
  std::vector<CloudEdge> cloud_edges_;  // index = client shard
  // Last: its constructor calls back into the hooks above.
  FleetDriver driver_;
};

}  // namespace nymix

#endif  // SRC_CORE_FLEET_H_
