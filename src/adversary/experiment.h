// AdversaryExperiment: a churning fleet of Nymix clusters instrumented
// with the adversary's taps, plus deliberately plantable isolation
// failures — the executable form of the paper's tracking-protection claim.
//
// The fleet itself is a FleetDriver configuration (src/core/fleet_driver.h):
// N nyms over ceil(N / nyms_per_host) host clusters placed round-robin
// onto shards; every slot spawns, visits its cluster's four sites with
// think time, and churns (terminate + replace) once per generation. The
// experiment plugs in through the driver's hooks:
//
//   * Cluster build: per-cluster replicas of the workload's four sites (a
//     shard's DNS is cluster-local; names are prefixed "h<c>." so replicas
//     coexist, while the canonical site key — the profile name — stays
//     cluster-invariant for cross-host linkage analysis), a PassiveObserver
//     at every destination's access link (exit vantage) and one at the host
//     uplink (entry vantage).
//   * Pre-terminate: a ground-truth NymRecord snapshotted at each churn —
//     which cookies, exit indices, and upload stains this instance actually
//     exposed.
//   * Create options / nym-ready: the optional leak plants, the isolation
//     failures the oracles must catch:
//       kSharedCookieJar  — same-host nyms import one cookie jar (§3.3)
//       kReusedCircuit    — same-host nyms pin exits per destination (§3.5)
//       kDisabledScrub    — uploads skip the SaniVM and keep EXIF (§3.6)
//
// Analyze() runs the attack suite post-run, serially, over structures
// ordered by (cluster, slot, generation) — so the AdversaryReport, and the
// adversary.* metric family ExportMetrics emits, are byte-identical across
// thread counts.
#ifndef SRC_ADVERSARY_EXPERIMENT_H_
#define SRC_ADVERSARY_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/adversary/attacks.h"
#include "src/adversary/observer.h"
#include "src/core/fleet_driver.h"

namespace nymix {

enum class LeakPlant { kNone, kSharedCookieJar, kReusedCircuit, kDisabledScrub };
std::string_view LeakPlantName(LeakPlant plant);

// Which four sites the fleet visits. Browse is the paper-style page set;
// streaming and upload swap in the ROADMAP item 4 profiles; mixed carries
// one of each shape (and is what the catch/clear test matrix uses, since
// the scrub plant only leaks through uploads).
enum class WorkloadMix { kBrowse, kStreaming, kUpload, kMixed };
std::string_view WorkloadMixName(WorkloadMix mix);

struct AdversaryOptions {
  int nym_count = 8;
  int nyms_per_host = 2;
  int generations = 2;
  // Passes over the site list per generation (4 visits per pass).
  int passes_per_generation = 1;
  WorkloadMix workload = WorkloadMix::kMixed;
  LeakPlant plant = LeakPlant::kNone;
  // Correlation window for the flow-matching attack.
  SimDuration correlation_window = Millis(500);
  // Exit-fingerprint probe: minimum shared sites for a verdict (attacks.h).
  size_t min_common_sites = 3;
  // Per-cluster Tor deployment. 4 exits x 4 sites makes a coincidental
  // full-map agreement a 1-in-256 event per pair — rare enough that the
  // clean fleet's exit advantage stays ~0 at any test scale.
  TorNetwork::Config tor = MakeAdversaryTorConfig();

  static TorNetwork::Config MakeAdversaryTorConfig() {
    TorNetwork::Config config;
    config.relay_count = 8;
    config.guard_count = 2;
    config.exit_count = 4;
    return config;
  }
};

// Quantified leak metrics — what the oracles threshold and the ablation
// sweeps emit.
struct AdversaryReport {
  LinkageSummary linkage;
  AnonymitySummary anonymity;
  FlowCorrelationSummary correlation;
  uint64_t nym_instances = 0;
  uint64_t entry_flows = 0;
  uint64_t exit_flows = 0;
  uint64_t tap_packets = 0;
  uint64_t tap_bytes = 0;
};

class AdversaryExperiment : private FleetHooks {
 public:
  // Builds every cluster, site replica, and tap up front. `sharded` must
  // outlive the experiment; its plan fixes the cluster partition.
  AdversaryExperiment(ShardedSimulation& sharded, const AdversaryOptions& options, uint64_t seed);
  ~AdversaryExperiment() override;

  // Spawns every slot's first nym and drives the executor to quiescence.
  void Run() { driver_.Run(); }

  // Runs every attack over the collected observations (call after Run).
  AdversaryReport Analyze() const;

  // Emits `report` as the adversary.* metric family (gauges for rates and
  // advantages, counters for observation volumes).
  static void ExportMetrics(const AdversaryReport& report, MetricsRegistry& metrics);

  // Post-run aggregates, summed in shard-id order.
  uint64_t visits() const { return driver_.Total(&FleetDriver::ShardState::visits); }
  uint64_t churns() const { return driver_.Total(&FleetDriver::ShardState::churns); }
  int host_count() const { return driver_.host_count(); }

  // Tap access for the metadata-only negative tests.
  const PassiveObserver& entry_observer(int host) const {
    return *taps_[static_cast<size_t>(host)].entry;
  }

 private:
  // One cluster's vantages: its uplink, and each site replica's access
  // link (in site order).
  struct ClusterTaps {
    std::unique_ptr<PassiveObserver> entry;
    std::vector<std::unique_ptr<PassiveObserver>> exits;
  };

  // FleetHooks.
  void BuildCluster(int index, FleetCluster& cluster, Simulation& sim) override;
  NymManager::CreateOptions CreateOptionsFor(int slot) override;
  void OnNymReady(int slot) override;
  // Churn boundary: record what this instance exposed before it is wiped.
  void BeforeTerminate(int slot) override;

  // Ground truth at churn time: cookies, exit map, upload stain.
  NymRecord SnapshotNym(int slot);

  AdversaryOptions options_;
  uint64_t seed_ = 0;
  std::vector<WebsiteProfile> site_profiles_;  // canonical (unprefixed) workload
  std::vector<ClusterTaps> taps_;              // one per cluster
  // Per slot: when its current nym came up, and its ground truth appended
  // in generation order (shard-local writes; flattened slot-major for
  // analysis).
  std::vector<SimTime> born_;
  std::vector<std::vector<NymRecord>> records_by_slot_;
  // Last: its constructor calls back into the hooks above.
  FleetDriver driver_;
};

}  // namespace nymix

#endif  // SRC_ADVERSARY_EXPERIMENT_H_
