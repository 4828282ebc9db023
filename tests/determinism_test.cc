// Regression tests for the determinism contract (DESIGN.md): two runs of
// the same seeded scenario must produce byte-identical trace JSON. This is
// the test that catches pointer-keyed iteration orders (heap addresses
// differ between the two runs inside one process) and any other
// nondeterminism that survives nymlint's static rules.
#include <array>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/fleet_checkpoint.h"
#include "src/core/nym_manager.h"
#include "src/core/testbed.h"
#include "src/net/simulation.h"
#include "src/obs/observability.h"
#include "src/store/kv_store.h"
#include "src/workload/website.h"
#include "tests/flow_model.h"
#include "tests/ksm_model.h"

namespace nymix {
namespace {

// sim.RunFor / sim.RunUntil, or, with `audit` set, their one-event-at-a-
// time forms that check every started flow's fair-share rate against the
// global max-min model (tests/flow_model.h) after each event.
void RunFor(Simulation& sim, SimDuration duration, FlowAuditor* audit) {
  if (audit == nullptr) {
    sim.RunFor(duration);
  } else {
    audit->RunFor(sim.loop(), sim.flows(), duration);
  }
}

void RunUntil(Simulation& sim, const std::function<bool()>& done, FlowAuditor* audit) {
  if (audit == nullptr) {
    sim.RunUntil(done);
  } else {
    NYMIX_CHECK_MSG(audit->RunUntil(sim.loop(), sim.flows(), done),
                    "simulation went idle before the condition held");
  }
}

// A scenario that exercises the subsystems where iteration order could
// leak: several links sharing flows (FlowScheduler's per-link maps), PRNG-
// driven sizes and routes, and trace spans. Wall-time self-profiling is
// disabled so the exported JSON contains virtual-time content only.
std::string RunScenario(uint64_t seed, FlowAuditor* audit = nullptr) {
  Simulation sim(seed);
  if (audit != nullptr) {
    audit->ExpectStallDeadlines([](FlowId) { return false; });
  }
  Observability obs;
  obs.trace.set_enabled(true);
  obs.trace.set_record_wall_time(false);
  sim.loop().set_observability(&obs);

  Link* uplink = sim.CreateLink("uplink", Millis(5), 8'000'000);
  Link* relay_a = sim.CreateLink("relay-a", Millis(12), 4'000'000);
  Link* relay_b = sim.CreateLink("relay-b", Millis(9), 2'000'000);

  int completed = 0;
  int started = 0;
  for (int i = 0; i < 24; ++i) {
    uint64_t bytes = sim.prng().NextInRange(20'000, 400'000);
    std::vector<Link*> path;
    switch (sim.prng().NextBelow(3)) {
      case 0:
        path = {uplink};
        break;
      case 1:
        path = {uplink, relay_a};
        break;
      default:
        path = {uplink, relay_b};
        break;
    }
    ++started;
    sim.flows().StartFlow(Route::Through(path), bytes, 1.0, /*stall_timeout=*/0,
                          [&completed](Result<SimTime>) { ++completed; });
    // Stagger the starts so flows overlap and bandwidth gets re-divided
    // across changing sets of contenders (the order-sensitive code path).
    RunFor(sim, Millis(sim.prng().NextBelow(30)), audit);
  }

  {
    TraceSpan span(&obs.trace, sim.loop().clock(), "test", "drain", "main");
    RunUntil(sim, [&] { return completed == started; }, audit);
  }
  return obs.trace.ToChromeJson();
}

// The fault-injection variant: lossy links, a flapping relay, probabilistic
// injector rolls, and status-form flows with stall deadlines. Every fault
// decision must come from the seeded streams, so two same-seed runs emit
// byte-identical traces — including the fault/retry instants.
std::string RunFaultScenario(uint64_t seed, FlowAuditor* audit = nullptr) {
  Simulation sim(seed);
  if (audit != nullptr) {
    audit->ExpectStallDeadlines([](FlowId) { return true; });  // every flow has one
  }
  Observability obs;
  obs.trace.set_enabled(true);
  obs.trace.set_record_wall_time(false);
  sim.loop().set_observability(&obs);

  Link* uplink = sim.CreateLink("uplink", Millis(5), 8'000'000);
  Link* relay_a = sim.CreateLink("relay-a", Millis(12), 4'000'000);
  Link* relay_b = sim.CreateLink("relay-b", Millis(9), 2'000'000);

  LinkFaultProfile lossy;
  lossy.loss_probability = 0.04;
  lossy.spike_probability = 0.2;
  lossy.spike_latency = Millis(15);
  relay_a->SetFaultProfile(lossy, sim.faults().SeedFor("relay-a"));
  sim.faults().ConfigureProbability("chaos.extra-load", 0.25);
  // Scheduled outage: relay-b flaps down and back up mid-experiment.
  sim.faults().At(Millis(600), "relay-b-down", [relay_b] { relay_b->SetDown(true); });
  sim.faults().At(Millis(1400), "relay-b-up", [relay_b] { relay_b->SetDown(false); });

  int completed = 0;
  int started = 0;
  for (int i = 0; i < 24; ++i) {
    uint64_t bytes = sim.prng().NextInRange(20'000, 400'000);
    std::vector<Link*> path;
    switch (sim.prng().NextBelow(3)) {
      case 0:
        path = {uplink};
        break;
      case 1:
        path = {uplink, relay_a};
        break;
      default:
        path = {uplink, relay_b};
        break;
    }
    // Injector-driven extra load: some iterations double up.
    const int copies = sim.faults().Roll("chaos.extra-load") ? 2 : 1;
    for (int c = 0; c < copies; ++c) {
      ++started;
      sim.flows().StartFlow(Route::Through(path), bytes, 1.0, /*stall_timeout=*/Seconds(3),
                            [&completed](Result<SimTime>) { ++completed; });
    }
    RunFor(sim, Millis(sim.prng().NextBelow(30)), audit);
  }

  {
    TraceSpan span(&obs.trace, sim.loop().clock(), "test", "drain", "main");
    RunUntil(sim, [&] { return completed == started; }, audit);
  }
  return obs.trace.ToChromeJson();
}

// The KSM reference: a scan of `host` must merge exactly what the brute-
// force page-array model merges, rebuilt page by page from the contents of
// every running memory on it.
void ExpectKsmMatchesModel(HostMachine& host, const BaseImage& image) {
  std::vector<PageArrayMemory> models;
  for (const VirtualMachine* vm : host.vms()) {
    if (vm->state() != VmState::kStopped) {
      const GuestMemory& memory = vm->memory();
      models.push_back(
          PageArrayMemory::Replay(memory.total_pages(), memory.contents(), image.block_digests()));
    }
  }
  std::vector<const PageArrayMemory*> pointers;
  for (const PageArrayMemory& model : models) {
    pointers.push_back(&model);
  }
  KsmStats want = BruteForceMerge(pointers);
  KsmStats got = host.ksm().ScanNow();
  EXPECT_GT(got.pages_sharing, 0u);
  EXPECT_EQ(got.pages_shared, want.pages_shared);
  EXPECT_EQ(got.pages_sharing, want.pages_sharing);
}

// A compact version of bench/scale_fleet.cc: two host clusters, each with
// live KSM scanning, a private Tor deployment, and a browsing nym. This
// covers the whole boot/visit/terminate machinery at a size small enough
// for a unit test, and checks each host's KSM totals against the page-array
// model while its nym is alive.
std::string RunFleetScenario(uint64_t seed, FlowAuditor* audit = nullptr) {
  Simulation sim(seed);
  Observability obs;
  obs.trace.set_enabled(true);
  obs.trace.set_record_wall_time(false);
  sim.loop().set_observability(&obs);

  auto image = BaseImage::CreateDistribution("nymix", 42, 4 * kMiB);
  struct Cluster {
    std::unique_ptr<HostMachine> host;
    std::unique_ptr<TorNetwork> tor;
    std::unique_ptr<NymManager> manager;
    std::unique_ptr<Website> site;
  };
  std::vector<Cluster> clusters(2);
  TorNetwork::Config tor_config;
  tor_config.relay_count = 6;
  tor_config.guard_count = 2;
  tor_config.exit_count = 2;
  for (size_t c = 0; c < clusters.size(); ++c) {
    clusters[c].host = std::make_unique<HostMachine>(sim);
    clusters[c].tor = std::make_unique<TorNetwork>(sim, tor_config);
    clusters[c].manager =
        std::make_unique<NymManager>(*clusters[c].host, image, clusters[c].tor.get(), nullptr);
    WebsiteProfile profile;
    profile.name = "site-" + std::to_string(c);
    profile.domain = "site" + std::to_string(c) + ".example.com";
    clusters[c].site = std::make_unique<Website>(sim, profile);
    clusters[c].host->ksm().Start(Seconds(2));
  }

  int done = 0;
  for (size_t c = 0; c < clusters.size(); ++c) {
    Cluster& cluster = clusters[c];
    cluster.manager->CreateNym(
        "nym-" + std::to_string(c), NymManager::CreateOptions{},
        [&sim, &cluster, &image, &done](Result<Nym*> nym, NymStartupReport) {
          NYMIX_CHECK(nym.ok());
          (*nym)->browser()->Visit(*cluster.site, [&cluster, &image, nym,
                                                   &done](Result<SimTime> visit) {
            NYMIX_CHECK(visit.ok());
            ExpectKsmMatchesModel(*cluster.host, *image);
            NYMIX_CHECK(cluster.manager->TerminateNym(*nym).ok());
            ++done;
          });
        });
  }
  RunUntil(sim, [&] { return done == 2; }, audit);
  RunFor(sim, Seconds(5), audit);  // a few more KSM ticks after the churn
  for (Cluster& cluster : clusters) {
    cluster.host->ksm().Stop();
  }
  return obs.trace.ToChromeJson();
}

// Whole-host crash → restore-from-checkpoint, PR 3's RecoverNym lifted to
// every nym on the host at once. The run checkpoints a two-nym host into a
// KvStore, crashes both VM pairs, restores the host from the store, drives
// the boots to quiescence, and re-checkpoints into a second store.
struct HostCrashRun {
  std::string trace;
  Bytes checkpoint_log;    // the KvStore log written before the crash
  Bytes recheckpoint_log;  // the log written by the restored host
  std::string draft;       // /home/user/draft.txt as the restored nym sees it
  bool guard_survived = false;
};

HostCrashRun RunHostCrashRestore(uint64_t seed) {
  Testbed bed(seed);
  Observability obs;
  obs.EnableAll();
  obs.trace.set_record_wall_time(false);
  obs.metrics.set_record_wall_time(false);
  bed.sim().loop().set_observability(&obs);

  // Names sort in creation order: RestoreHost boots in store (key) order,
  // so the re-checkpoint enumerates nyms in the same order as the first.
  NymManager::CreateOptions guarded;
  guarded.guard_seed = 1234;
  Nym* alpha = bed.CreateNymBlocking("alpha", guarded);
  Nym* bravo = bed.CreateNymBlocking("bravo");
  auto* tor = static_cast<TorClient*>(alpha->anonymizer());
  NYMIX_CHECK(tor->entry_guard_index().has_value());
  const size_t original_guard = *tor->entry_guard_index();
  NYMIX_CHECK(alpha->anon_vm()
                  ->disk()
                  .fs()
                  .writable_mutable()
                  .WriteFile("/home/user/draft.txt", Blob::FromString("intersection notes"))
                  .ok());

  KvStore checkpoint;
  NYMIX_CHECK(CheckpointHost(bed.manager(), "host/0", checkpoint).ok());
  NYMIX_CHECK_MSG(checkpoint.size() == 2, "expected both nyms in the checkpoint");

  bed.manager().InjectCrash(*alpha);
  bed.manager().InjectCrash(*bravo);

  int restored = 0;
  NYMIX_CHECK(RestoreHost(bed.manager(), "host/0", checkpoint, &restored).ok());
  NYMIX_CHECK_MSG(restored == 2, "expected RestoreHost to boot both nyms");
  bed.sim().RunUntil([&bed] {
    for (const char* name : {"alpha", "bravo"}) {
      Nym* nym = bed.manager().FindNym(name);
      if (nym == nullptr || nym->anonymizer() == nullptr || !nym->anonymizer()->ready()) {
        return false;
      }
    }
    return true;
  });

  KvStore recheckpoint;
  NYMIX_CHECK(CheckpointHost(bed.manager(), "host/0", recheckpoint).ok());

  HostCrashRun out;
  out.trace = obs.trace.ToChromeJson();
  out.checkpoint_log = checkpoint.log();
  out.recheckpoint_log = recheckpoint.log();
  Nym* fresh = bed.manager().FindNym("alpha");
  if (auto blob = fresh->anon_vm()->disk().fs().ReadFile("/home/user/draft.txt"); blob.ok()) {
    out.draft = StringFromBytes(blob->Materialize());
  }
  auto* fresh_tor = static_cast<TorClient*>(fresh->anonymizer());
  out.guard_survived = fresh_tor->entry_guard_index().has_value() &&
                       *fresh_tor->entry_guard_index() == original_guard;
  return out;
}

TEST(DeterminismTest, SameSeedProducesIdenticalTraceJson) {
  // Shift heap layout between the runs: if any container orders by pointer
  // value, the second run sees different addresses and the JSON diverges.
  const std::string first = RunScenario(0xA11CE);
  auto pad = std::make_unique<std::array<char, 8192>>();
  pad->fill('x');
  const std::string second = RunScenario(0xA11CE);
  ASSERT_FALSE(first.empty());
  EXPECT_NE(first.find("traceEvents"), std::string::npos);
  EXPECT_EQ(first, second);
}

TEST(DeterminismTest, RepeatedRunsStayIdentical) {
  const std::string baseline = RunScenario(7);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(baseline, RunScenario(7)) << "run " << i;
  }
}

TEST(DeterminismTest, DifferentSeedsProduceDifferentTraces) {
  // Sanity check that the scenario actually depends on the seed — if it
  // didn't, the identical-JSON assertions above would be vacuous.
  EXPECT_NE(RunScenario(1), RunScenario(2));
}

TEST(DeterminismTest, DisablingWallTimeStripsWallArgs) {
  const std::string json = RunScenario(3);
  EXPECT_EQ(json.find("wall_us"), std::string::npos);
}

TEST(DeterminismTest, FaultScenarioSameSeedIsByteIdentical) {
  const std::string first = RunFaultScenario(0xFA17);
  auto pad = std::make_unique<std::array<char, 8192>>();
  pad->fill('y');
  const std::string second = RunFaultScenario(0xFA17);
  ASSERT_FALSE(first.empty());
  // The scenario genuinely exercises the fault paths: downed links and
  // injector triggers leave their instants in the trace.
  EXPECT_NE(first.find("link_down:relay-b"), std::string::npos);
  EXPECT_NE(first.find("inject:"), std::string::npos);
  EXPECT_EQ(first, second);
}

TEST(DeterminismTest, FaultScenarioDifferentSeedsDiverge) {
  EXPECT_NE(RunFaultScenario(21), RunFaultScenario(22));
}

// The incremental scheduler's equivalence contract, stated per event: after
// every event of these runs, every started flow's rate and stall flag
// equal the global max-min model in tests/flow_model.h bit for bit. The
// audited run steps the loop one event at a time and must not move a
// single trace byte against the plain run.
TEST(DeterminismTest, IncrementalRatesMatchModelAtEveryEvent) {
  for (uint64_t seed : {3ull, 0xA11CEull, 0xBEEFull}) {
    FlowAuditor audit;
    const std::string audited = RunScenario(seed, &audit);
    ASSERT_FALSE(audited.empty());
    EXPECT_EQ(audit.failure(), "") << "seed " << seed;
    // Each of the 24 flows has at least a setup and a completion event.
    EXPECT_GE(audit.checks(), 48u) << "seed " << seed;
    EXPECT_GT(audit.rates_compared(), audit.checks()) << "seed " << seed;
    EXPECT_EQ(audited, RunScenario(seed)) << "seed " << seed;
  }
}

TEST(DeterminismTest, FaultScenarioRatesMatchModelAtEveryEvent) {
  // Link flaps and stall deadlines are exactly the paths where a
  // dirty-driven rescheduler could drift from the reference.
  for (uint64_t seed : {0xFA17ull, 99ull}) {
    FlowAuditor audit;
    const std::string audited = RunFaultScenario(seed, &audit);
    ASSERT_FALSE(audited.empty());
    EXPECT_EQ(audit.failure(), "") << "seed " << seed;
    EXPECT_GE(audit.checks(), 48u) << "seed " << seed;
    EXPECT_GT(audit.rates_compared(), audit.checks()) << "seed " << seed;
    EXPECT_EQ(audited, RunFaultScenario(seed)) << "seed " << seed;
  }
}

TEST(DeterminismTest, FleetScenarioRatesMatchModelAtEveryEvent) {
  FlowAuditor audit;
  const std::string audited = RunFleetScenario(0x5CA1E, &audit);
  ASSERT_FALSE(audited.empty());
  // The scenario really ran the hv path: KSM scan events are in the trace.
  EXPECT_NE(audited.find("ksm_scan"), std::string::npos);
  EXPECT_EQ(audit.failure(), "");
  EXPECT_GT(audit.checks(), 50u);
  EXPECT_GT(audit.rates_compared(), 0u);
  EXPECT_EQ(audited, RunFleetScenario(0x5CA1E));
}

TEST(DeterminismTest, FleetScenarioSameSeedIsByteIdentical) {
  const std::string first = RunFleetScenario(7);
  auto pad = std::make_unique<std::array<char, 8192>>();
  pad->fill('z');
  const std::string second = RunFleetScenario(7);
  EXPECT_EQ(first, second);
}

// The whole-host crash/restore round trip is lossless down to the store
// bytes: re-checkpointing the restored host reproduces the pre-crash
// KvStore log exactly — options, both writable layers, guard state, save
// sequence, and the record framing around them.
TEST(DeterminismTest, HostCrashRestoreFromCheckpointIsByteIdentical) {
  HostCrashRun run = RunHostCrashRestore(0xC0FFEE);
  ASSERT_FALSE(run.checkpoint_log.empty());
  EXPECT_EQ(run.checkpoint_log, run.recheckpoint_log);
  EXPECT_EQ(run.draft, "intersection notes");
  EXPECT_TRUE(run.guard_survived);
}

TEST(DeterminismTest, HostCrashRestoreSameSeedIsByteIdentical) {
  const HostCrashRun first = RunHostCrashRestore(5);
  auto pad = std::make_unique<std::array<char, 8192>>();
  pad->fill('w');
  const HostCrashRun second = RunHostCrashRestore(5);
  ASSERT_FALSE(first.trace.empty());
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.checkpoint_log, second.checkpoint_log);
  EXPECT_EQ(first.recheckpoint_log, second.recheckpoint_log);
}

}  // namespace
}  // namespace nymix
