// FleetDriver: the one implementation of nym-browsing over the parallel
// executor (§3, Fig. 3/7) — parallel, ephemeral nymboxes that spawn,
// browse, and are wiped and replaced.
//
// The driver owns N slots over ceil(N / nyms_per_host) host clusters. Each
// cluster is a HostMachine with its own test Tor deployment and NymManager,
// placed onto a shard by the ShardPlacement (round-robin when empty), and
// booting from the one shared distribution image. Every slot runs
// the same drive chain:
//
//   SpawnNym -> VisitNext -> (think) -> Advance -> ... -> churn -> SpawnNym
//                                              \-> FinishSlot / AbandonSlot
//
// visiting its cluster's sites round-robin, passes x visit_multiplier x
// |sites| visits per generation, with a think time drawn from a per-shard
// stream between actions. Failed creates and visits retry on a finite
// budget; a slot that exhausts it is abandoned so the run still quiesces.
//
// Configurations (ShardedFleet in src/core/fleet.h, AdversaryExperiment in
// src/adversary/experiment.h) plug in through FleetHooks — the per-cluster
// build, per-slot create options, nym-ready, post-visit, pre-terminate and
// shard-finished points — and stay otherwise out of the chain.
//
// Thread confinement: all per-slot callbacks run on the owning shard's
// event loop, so every mutable field they touch (slot state, think Prng,
// the shard's counters, the cluster's weight) is per-shard. Aggregates are
// summed after Run(), in shard-id order.
#ifndef SRC_CORE_FLEET_DRIVER_H_
#define SRC_CORE_FLEET_DRIVER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/nym_manager.h"
#include "src/parallel/sharded_sim.h"
#include "src/workload/website.h"

namespace nymix {

// The distribution image every fleet host boots from — the same release
// stick. Exposed so warm-start paths (bench/scale_fleet) can acquire
// checkpointed images with the identical identity.
inline constexpr const char* kFleetImageName = "nymix";
inline constexpr uint64_t kFleetImageSeed = 42;
inline constexpr uint64_t kFleetImageSizeBytes = 64 * kMiB;

// One host cluster. The driver builds host, tor and manager; the
// configuration's BuildCluster hook adds the sites (and anything else).
struct FleetCluster {
  int shard = 0;
  // Visits per generation scale by this (crossed fleets draw it per host).
  int visit_multiplier = 1;
  // Observed activity (visits, cloud fetches, churns): HostWeights() input.
  uint64_t weight_events = 0;
  std::unique_ptr<HostMachine> host;
  std::unique_ptr<TorNetwork> tor;
  std::unique_ptr<NymManager> manager;
  std::vector<std::unique_ptr<Website>> sites;  // visited round-robin
};

// The points where configurations differ. Called on the slot's shard loop,
// except BuildCluster (construction, on the calling thread).
class FleetHooks {
 public:
  FleetHooks() = default;
  FleetHooks(const FleetHooks&) = delete;
  FleetHooks& operator=(const FleetHooks&) = delete;
  virtual ~FleetHooks() = default;

  // Cluster `index` has its host, tor and manager; add its sites. Object
  // and link ids come from the loop's allocator, so construction order here
  // is part of every trace.
  virtual void BuildCluster(int index, FleetCluster& cluster, Simulation& sim) = 0;
  virtual NymManager::CreateOptions CreateOptionsFor(int /*slot*/) { return {}; }
  // The slot's new nym booted; its first visit starts right after.
  virtual void OnNymReady(int /*slot*/) {}
  // Post-visit step, after think time. Return true to take the chain over;
  // the hook then resumes it with FleetDriver::Advance(slot, epoch).
  virtual bool ClaimAfterVisit(int /*slot*/, int /*epoch*/) { return false; }
  // Churn boundary: the slot's nym is still live and about to be wiped.
  virtual void BeforeTerminate(int /*slot*/) {}
  // The last slot on `shard` finished.
  virtual void OnShardFinished(int /*shard*/) {}
};

class FleetDriver {
 public:
  // Experiment-definition values each configuration fixes internally.
  struct Config {
    int nym_count = 1;
    int nyms_per_host = 1;
    int generations = 1;
    int passes_per_generation = 1;  // passes over the cluster's sites
    const char* think_label = "";   // names the per-shard think stream
    const char* name_prefix = "";   // nym names: <prefix><host>-s<i>-g<n>
    TorNetwork::Config tor;
    ShardPlacement placement;
    // Per-shard images; empty = every shard boots the interned release image.
    std::vector<std::shared_ptr<const BaseImage>> images;
  };

  struct Slot {
    int cluster = 0;
    Nym* nym = nullptr;
    int visits_done = 0;  // within the current generation
    int generation = 0;
    // Consecutive failed visits / waits for a recovering VM; resets on the
    // next successful visit. Exceeding the budget abandons the slot so a
    // pathological fault schedule still quiesces.
    int visit_retries = 0;
    int create_retries = 0;
    // Set once the slot is retired (FinishSlot); late callbacks (a retry
    // timer, a VM recovery, a booting straggler) check it and stand down.
    bool finished = false;
    // Drive-chain generation. A VM crash severs the slot's in-flight visit
    // chain (the nym's deferred work evaporates at its lifetime guards, so
    // no failure callback ever comes back); the crash bumps the epoch and
    // the recovery callback starts the one replacement chain. Continuations
    // carry the epoch they belong to and stand down when stale, so a timer
    // surviving from the severed chain can never double-drive the slot.
    int epoch = 0;
  };

  // Everything a worker thread mutates while running one shard's epoch.
  struct ShardState {
    Prng think_prng;
    int total_slots = 0;
    int finished_slots = 0;
    uint64_t visits = 0;
    uint64_t churns = 0;
    uint64_t cloud_fetches = 0;
    uint64_t visit_failures = 0;
    uint64_t create_failures = 0;
    uint64_t slots_abandoned = 0;
    uint64_t vm_recoveries = 0;

    explicit ShardState(uint64_t seed) : think_prng(seed) {}
  };

  // Builds every cluster up front (calling hooks.BuildCluster for each).
  // `sharded` and `hooks` must outlive the driver.
  FleetDriver(ShardedSimulation& sharded, Config config, uint64_t seed, FleetHooks& hooks);
  FleetDriver(const FleetDriver&) = delete;
  FleetDriver& operator=(const FleetDriver&) = delete;
  ~FleetDriver();

  // Spawns every slot's first nym and drives the executor to quiescence.
  void Run();

  // Schedules a VM crash + recovery on `host` at virtual time `at`: the
  // first slot on that host with a live nym is crashed where it stands and
  // rebooted through NymManager::RecoverNym. Shard-local. Call before Run().
  void ScheduleVmCrash(int host, SimTime at);

  // --- Chain access for hooks (on the slot's shard loop) ----------------
  // True when a continuation of (slot, epoch) must stand down.
  bool Stale(int slot, int epoch) const;
  // Runs `fn` on the slot's shard after a think time.
  void AfterThink(int slot, EventLoop::Callback fn);
  // Next step of the chain: another visit, or the churn boundary.
  void Advance(int slot, int epoch);

  const Slot& slot(int index) const { return slots_[static_cast<size_t>(index)]; }
  FleetCluster& cluster(int host) { return *clusters_[static_cast<size_t>(host)]; }
  const FleetCluster& cluster(int host) const { return *clusters_[static_cast<size_t>(host)]; }
  FleetCluster& ClusterOf(int slot) { return cluster(slots_[static_cast<size_t>(slot)].cluster); }
  ShardState& ShardOf(int slot) {
    return *shard_states_[static_cast<size_t>(ClusterOf(slot).shard)];
  }
  int host_count() const { return static_cast<int>(clusters_.size()); }
  // Virtual time on the slot's shard.
  SimTime Now(int slot) { return sharded_.shard(ClusterOf(slot).shard).now(); }

  // A ShardState counter summed over shards in shard-id order.
  uint64_t Total(uint64_t ShardState::*counter) const;
  // Observed per-host activity; hosts that did nothing report weight 1 so
  // a BalancedPlacement pack stays total.
  std::vector<double> HostWeights() const;

 private:
  void SpawnNym(int slot);
  void VisitNext(int slot, int epoch);
  void FinishSlot(int slot);
  // Writes the slot off (retry budget spent, or recovery failed): tears
  // down any live nym best-effort and retires the slot so Run() quiesces.
  void AbandonSlot(int slot);
  // Spends one unit of the slot's visit budget and retries `step` after a
  // think time, or abandons the slot once the budget is gone.
  void RetryVisit(int slot, EventLoop::Callback step);

  ShardedSimulation& sharded_;
  Config config_;
  FleetHooks& hooks_;
  std::vector<std::unique_ptr<FleetCluster>> clusters_;
  std::vector<Slot> slots_;
  std::vector<std::unique_ptr<ShardState>> shard_states_;
};

}  // namespace nymix

#endif  // SRC_CORE_FLEET_DRIVER_H_
