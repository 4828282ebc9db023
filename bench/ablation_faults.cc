// Ablation (ours, motivated by §5.1/§3.5's robustness claims): how Nymix
// degrades under injected faults. Three phases:
//   1. Loss sweep — seeded packet loss on the host uplink vs Tor fetch
//      success rate and latency. Retries (flow stall deadlines +
//      RetryWithBackoff) ride out low loss; above the abort knee every
//      fetch fails with a clean Status instead of hanging.
//   2. Relay crash — the destination's bound exit crashes; the next fetch
//      stalls, fails over to a fresh exit, and completes.
//   3. VM crash + recovery — InjectCrash kills both nymbox VMs mid-session;
//      RecoverNym rebuilds from the saved writable layers with the same
//      entry guard (§3.5).
#include <cstdio>

#include "bench/bench_stats.h"
#include "src/core/testbed.h"

using namespace nymix;

namespace {

struct FetchStats {
  int attempts = 0;
  int successes = 0;
  double total_success_seconds = 0.0;

  double success_rate() const {
    return attempts == 0 ? 0.0 : static_cast<double>(successes) / attempts;
  }
  double mean_success_seconds() const {
    return successes == 0 ? 0.0 : total_success_seconds / successes;
  }
};

// One blocking fetch through the nym's anonymizer; returns ok-ness.
bool FetchBlocking(Testbed& bed, Nym* nym, const std::string& host, double* seconds) {
  bool done = false;
  bool ok = false;
  SimTime start = bed.sim().now();
  nym->anonymizer()->Fetch(host, 2 * kKiB, 200 * kKiB, [&](Result<FetchReceipt> receipt) {
    ok = receipt.ok();
    done = true;
  });
  bed.sim().RunUntil([&] { return done; });
  *seconds = ToSeconds(bed.sim().now() - start);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  BenchStats stats(FlagSet("ablation_faults"), argc, argv);

  // ---- Phase 1: loss sweep -------------------------------------------
  std::printf("# Fault ablation: uplink loss vs Tor fetch outcome (200 KiB, 12 fetches)\n");
  std::printf("%-10s %10s %12s %16s\n", "loss", "success", "rate", "mean latency(s)");
  const double loss_levels[] = {0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.40};
  constexpr int kFetches = 12;
  for (double loss : loss_levels) {
    Testbed bed(/*seed=*/Mix64(Fnv1a64("ablation_faults") ^
                               static_cast<uint64_t>(loss * 1000)));
    stats.Attach(bed.sim());
    Nym* nym = bed.CreateNymBlocking("sweep");
    // Loss begins after bootstrap: the sweep isolates fetch-path
    // robustness (bootstrap under loss is the relay-crash phase's story).
    LinkFaultProfile profile;
    profile.loss_probability = loss;
    bed.host().uplink()->SetFaultProfile(profile,
                                         bed.sim().faults().SeedFor("host.uplink"));
    FetchStats fetch_stats;
    const std::string host = bed.sites().ByName("BBC").profile().domain;
    for (int i = 0; i < kFetches; ++i) {
      double seconds = 0.0;
      ++fetch_stats.attempts;
      if (FetchBlocking(bed, nym, host, &seconds)) {
        ++fetch_stats.successes;
        fetch_stats.total_success_seconds += seconds;
      }
    }
    std::printf("%-10.2f %6d/%-3d %11.0f%% %16.1f\n", loss, fetch_stats.successes,
                fetch_stats.attempts, fetch_stats.success_rate() * 100.0,
                fetch_stats.mean_success_seconds());
    char prefix[64];
    std::snprintf(prefix, sizeof(prefix), "loss_%02d.", static_cast<int>(loss * 100));
    stats.Set(std::string(prefix) + "success_rate", fetch_stats.success_rate());
    stats.Set(std::string(prefix) + "mean_latency_s", fetch_stats.mean_success_seconds());
  }
  std::printf("# Below the ~20%% knee retries ride out loss; above it the x4 abort\n");
  std::printf("# multiplier dooms every attempt and fetches fail with a clean Status.\n\n");

  // ---- Phase 2: exit relay crash + failover --------------------------
  {
    Testbed bed(/*seed=*/Fnv1a64("ablation_faults.relay"));
    stats.Attach(bed.sim());
    Nym* nym = bed.CreateNymBlocking("crashy");
    auto* tor = static_cast<TorClient*>(nym->anonymizer());
    const std::string host = bed.sites().ByName("BBC").profile().domain;
    double baseline_s = 0.0;
    NYMIX_CHECK(FetchBlocking(bed, nym, host, &baseline_s));
    size_t bound_exit = tor->ExitIndexForDestination(host);
    bed.tor().CrashRelay(bound_exit);
    double failover_s = 0.0;
    bool recovered = FetchBlocking(bed, nym, host, &failover_s);
    bed.tor().RestartRelay(bound_exit);
    std::printf("# Exit-crash failover: baseline fetch %.1f s, post-crash fetch %s in %.1f s\n",
                baseline_s, recovered ? "recovered" : "FAILED", failover_s);
    std::printf("#   (stall timeout + backoff + fresh exit; stream isolation kept)\n\n");
    stats.Set("relay_crash.baseline_s", baseline_s);
    stats.Set("relay_crash.failover_s", failover_s);
    stats.Set("relay_crash.recovered", recovered ? 1.0 : 0.0);
    NYMIX_CHECK_MSG(recovered, "fetch did not recover from exit crash");
  }

  // ---- Phase 3: VM crash + NymManager recovery ------------------------
  {
    Testbed bed(/*seed=*/Fnv1a64("ablation_faults.vmcrash"));
    stats.Attach(bed.sim());
    NymManager::CreateOptions options;
    options.guard_seed = 77;
    Nym* nym = bed.CreateNymBlocking("phoenix", options);
    auto* tor = static_cast<TorClient*>(nym->anonymizer());
    size_t guard_before = *tor->entry_guard_index();
    NYMIX_CHECK(bed.manager().CheckpointNym(*nym).ok());
    bed.manager().InjectCrash(*nym);
    SimTime crash_at = bed.sim().now();
    NymStartupReport report;
    auto recovered = bed.RecoverNymBlocking(nym, &report);
    NYMIX_CHECK_MSG(recovered.ok(), recovered.status().ToString().c_str());
    auto* fresh_tor = static_cast<TorClient*>((*recovered)->anonymizer());
    bool guard_kept = *fresh_tor->entry_guard_index() == guard_before;
    double recovery_s = ToSeconds(bed.sim().now() - crash_at);
    std::printf("# VM crash recovery: %.1f s (boot %.1f s + warm anonymizer %.1f s), guard %s\n",
                recovery_s, ToSeconds(report.boot_vm), ToSeconds(report.start_anonymizer),
                guard_kept ? "preserved" : "LOST");
    stats.Set("vm_crash.recovery_s", recovery_s);
    stats.Set("vm_crash.boot_vm_s", ToSeconds(report.boot_vm));
    stats.Set("vm_crash.start_anonymizer_s", ToSeconds(report.start_anonymizer));
    stats.Set("vm_crash.guard_preserved", guard_kept ? 1.0 : 0.0);
    NYMIX_CHECK_MSG(guard_kept, "entry guard lost across crash recovery");
  }

  return stats.Finish();
}
