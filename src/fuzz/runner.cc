#include "src/fuzz/runner.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "src/adversary/experiment.h"
#include "src/anon/anonymizer.h"
#include "src/core/fleet.h"
#include "src/core/fleet_checkpoint.h"
#include "src/core/testbed.h"
#include "src/core/validation.h"
#include "src/crypto/sha256.h"
#include "src/fuzz/entropy.h"
#include "src/net/capture.h"
#include "src/net/flow.h"
#include "src/net/link.h"
#include "src/obs/observability.h"
#include "src/parallel/channel.h"
#include "src/parallel/sharded_sim.h"
#include "src/sanitize/scrubber.h"
#include "src/store/kv_store.h"
#include "src/store/nbt.h"
#include "src/store/record_log.h"
#include "src/unionfs/union_fs.h"
#include "src/util/blob.h"
#include "src/util/bytes.h"
#include "src/util/prng.h"
#include "src/workload/browser.h"
#include "src/workload/website.h"

namespace nymix {
namespace {

// ---------------------------------------------------------------- helpers

int64_t ClampI(int64_t value, int64_t lo, int64_t hi) {
  return value < lo ? lo : (value > hi ? hi : value);
}

// Wraps any int64 into [0, count); the runner's "dangling references are
// no-ops or redirects" rule for index arguments.
int Wrap(int64_t value, int count) {
  if (count <= 0) {
    return 0;
  }
  int64_t m = value % count;
  return static_cast<int>(m < 0 ? m + count : m);
}

std::string DigestOf(const std::string& surface) {
  return HexEncode(DigestToBytes(Sha256::Hash(surface)));
}

// Optional observer for RunScenarioGolden: invoked on the merged
// observability of the base run, before the simulation is torn down.
using GoldenEmit = std::function<void(const TraceRecorder&, const MetricsRegistry&)>;

// ------------------------------------------------------------- net family

// Replies to every packet until the deadline; identical in spirit to the
// parallel_equivalence_test storm sink, but owned by the fuzz runner so
// scenarios control topology and timing.
class FuzzEchoSink : public PacketSink {
 public:
  FuzzEchoSink(EventLoop& loop, Link* out, std::string name, SimTime deadline)
      : loop_(loop), out_(out), name_(std::move(name)), deadline_(deadline) {}

  void Kick() { Send(); }

  void OnPacket(const Packet&, Link&, bool) override {
    if (MetricsRegistry* meters = loop_.meters()) {
      meters->GetCounter("fuzz.echo." + name_)->Increment();
    }
    if (loop_.now() < deadline_) {
      loop_.ScheduleAfter(Millis(1), [this] { Send(); });
    }
  }

 private:
  void Send() {
    Packet packet;
    packet.payload = Bytes(64);
    packet.annotation = name_;
    out_->SendFromA(std::move(packet));
  }

  EventLoop& loop_;
  Link* out_;
  std::string name_;
  SimTime deadline_;
};

struct NetRunResult {
  std::string trace;
  std::string stats;
  uint64_t flows_started = 0;
  uint64_t flows_done = 0;
};

NetRunResult RunNetOnce(const Scenario& scenario, int threads) {
  const ScenarioTopology& t = scenario.topology;
  int shards = static_cast<int>(ClampI(t.shards, 1, 4));
  SimTime deadline = Millis(ClampI(t.echo_deadline_ms, 200, 3000));

  ShardedSimulation sharded(scenario.seed, ShardPlan{shards, threads});
  sharded.EnableObservability(/*record_wall_time=*/false);

  // Per-shard plumbing the steps act on. Flow counters are per shard (each
  // element is touched only by its shard's thread), summed after the run.
  std::vector<Link*> first_links(static_cast<size_t>(shards));
  std::vector<Link*> second_links(static_cast<size_t>(shards));
  std::vector<uint64_t> started(static_cast<size_t>(shards), 0);
  std::vector<uint64_t> done(static_cast<size_t>(shards), 0);
  for (int s = 0; s < shards; ++s) {
    Simulation& sim = sharded.shard(s);
    first_links[static_cast<size_t>(s)] =
        sim.CreateLink("fz-s" + std::to_string(s) + "-l0", Millis(2), 8'000'000);
    second_links[static_cast<size_t>(s)] =
        sim.CreateLink("fz-s" + std::to_string(s) + "-l1", Millis(3), 6'000'000);
  }

  std::vector<std::unique_ptr<FuzzEchoSink>> sinks;
  std::vector<CrossShardChannel*> channels;

  int step_index = 0;
  for (const ScenarioStep& step : scenario.steps) {
    ++step_index;
    switch (step.kind) {
      case StepKind::kNetChannel: {
        if (shards < 2) {
          break;  // cross-shard channel needs two shards; shrunk to no-op
        }
        int a = Wrap(step.a, shards);
        int b = (a + 1 + Wrap(step.b, shards - 1)) % shards;
        SimDuration latency = Millis(ClampI(step.c, 1, 50));
        uint64_t bandwidth = static_cast<uint64_t>(ClampI(step.d, 100, 10'000)) * 1000;
        CrossShardChannel* channel = sharded.CreateChannel(
            "fz-ch" + std::to_string(channels.size()), a, b, latency, bandwidth);
        auto sink_a = std::make_unique<FuzzEchoSink>(
            sharded.shard(a).loop(), channel->a_end(),
            "ch" + std::to_string(channels.size()) + ".a", deadline);
        auto sink_b = std::make_unique<FuzzEchoSink>(
            sharded.shard(b).loop(), channel->b_end(),
            "ch" + std::to_string(channels.size()) + ".b", deadline);
        channel->a_end()->AttachA(sink_a.get());
        channel->b_end()->AttachA(sink_b.get());
        FuzzEchoSink* kick_a = sink_a.get();
        FuzzEchoSink* kick_b = sink_b.get();
        SimTime kick_at = Millis(static_cast<SimDuration>(7 * channels.size() % 50));
        sharded.shard(a).loop().ScheduleAt(kick_at, [kick_a] { kick_a->Kick(); });
        sharded.shard(b).loop().ScheduleAt(kick_at + Millis(3), [kick_b] { kick_b->Kick(); });
        sinks.push_back(std::move(sink_a));
        sinks.push_back(std::move(sink_b));
        channels.push_back(channel);
        break;
      }
      case StepKind::kNetFaultProfile: {
        if (channels.empty()) {
          break;  // nothing to degrade yet
        }
        CrossShardChannel* channel = channels[static_cast<size_t>(
            Wrap(step.a, static_cast<int>(channels.size())))];
        LinkFaultProfile profile;
        profile.loss_probability = static_cast<double>(ClampI(step.b, 0, 500)) / 1000.0;
        profile.spike_probability = static_cast<double>(ClampI(step.c, 0, 500)) / 1000.0;
        profile.spike_latency = Millis(3);
        channel->SetFaultProfile(profile,
                                 Mix64(scenario.seed ^ static_cast<uint64_t>(step_index)));
        break;
      }
      case StepKind::kNetFlow: {
        int s = Wrap(step.a, shards);
        Simulation& sim = sharded.shard(s);
        uint64_t bytes = static_cast<uint64_t>(ClampI(step.b, 10'000, 500'000));
        int count = static_cast<int>(ClampI(step.c, 1, 4));
        uint64_t* done_slot = &done[static_cast<size_t>(s)];
        // The stall deadline makes completion fire exactly once even when a
        // link flap stalls the flow — the ops-terminate oracle depends on it.
        for (int f = 0; f < count; ++f) {
          ++started[static_cast<size_t>(s)];
          sim.flows().StartFlow(
              Route::Through({first_links[static_cast<size_t>(s)],
                              second_links[static_cast<size_t>(s)]}),
              bytes, 1.1, /*stall_timeout=*/Millis(30'000),
              [done_slot](Result<SimTime>) { ++*done_slot; });
        }
        break;
      }
      case StepKind::kNetLinkFlap: {
        int s = Wrap(step.a, shards);
        Link* link = first_links[static_cast<size_t>(s)];
        SimTime down_at = Millis(ClampI(step.b, 0, 5000));
        SimDuration duration = Millis(ClampI(step.c, 50, 2000));
        sharded.shard(s).loop().ScheduleAt(down_at, [link] { link->SetDown(true); });
        sharded.shard(s).loop().ScheduleAt(down_at + duration,
                                           [link] { link->SetDown(false); });
        break;
      }
      default:
        break;  // foreign-family step: no-op by the closure rule
    }
  }

  sharded.RunUntilIdle();
  sharded.MergeObservability();

  NetRunResult result;
  result.trace = sharded.merged().trace.ToChromeJson();
  std::ostringstream stats;
  sharded.merged().metrics.WriteJson(stats);
  result.stats = stats.str();
  for (int s = 0; s < shards; ++s) {
    result.flows_started += started[static_cast<size_t>(s)];
    result.flows_done += done[static_cast<size_t>(s)];
  }
  return result;
}

void RunNetFamily(const Scenario& scenario, OracleSuite& suite, std::string& surface) {
  int threads = static_cast<int>(ClampI(scenario.topology.threads, 1, 8));
  NetRunResult base = RunNetOnce(scenario, /*threads=*/1);
  surface += "net flows=" + std::to_string(base.flows_done) + "/" +
             std::to_string(base.flows_started) + "\n";
  surface += base.trace;
  surface += base.stats;

  if (base.flows_done != base.flows_started && suite.enabled("ops-terminate")) {
    suite.Fail("ops-terminate",
               "flows completed " + std::to_string(base.flows_done) + " of " +
                   std::to_string(base.flows_started) + " started");
  }
  if (threads > 1 && suite.enabled("trace-identity")) {
    NetRunResult other = RunNetOnce(scenario, threads);
    if (other.trace != base.trace) {
      suite.Fail("trace-identity", "trace bytes diverged between --threads=1 and --threads=" +
                                       std::to_string(threads));
    } else if (other.stats != base.stats) {
      suite.Fail("trace-identity", "metrics bytes diverged between --threads=1 and --threads=" +
                                       std::to_string(threads));
    }
  }
}

// ------------------------------------------------------------ host family

// Replaces the CommVM policy with one that ECHOES wire packets back to the
// AnonVM — the deliberate NAT leak behind --plant=nat-leak. Anonymizer
// control replies keep flowing so the nym still browses normally; only the
// drop-raw-guest-traffic rule is sabotaged.
void PlantNatLeak(Nym* nym) {
  VirtualMachine* comm = nym->comm_vm();
  Link* wire = nym->wire();
  Link* vm_uplink = nym->vm_uplink();
  comm->SetPacketHandler([nym, comm, wire, vm_uplink](const Packet& packet, Link& link, bool) {
    if (&link == wire) {
      comm->SendPacket(wire, packet);  // the leak: answer instead of drop
      return;
    }
    if (&link == vm_uplink && nym->anonymizer() != nullptr) {
      nym->anonymizer()->HandlePacket(packet);
    }
  });
}

struct HostRig {
  Testbed bed;
  Observability obs;
  PacketCapture capture;
  std::vector<Nym*> nyms;           // nullptr = failed boot / lost to a crash
  std::vector<std::string> names;
  // Per-nym UnionFs model: path -> expected bytes.
  std::vector<std::map<std::string, Bytes>> models;

  explicit HostRig(uint64_t seed) : bed(seed) {}
};

// Drives the loop until `done` flips; false means the loop went idle with
// the completion never fired — the ops-terminate failure mode.
bool Await(HostRig& rig, const bool& done) {
  return rig.bed.sim().loop().RunUntilCondition([&done] { return done; });
}

std::string FuzzPath(int64_t path_id) { return "/fuzz/p" + std::to_string(Wrap(path_id, 16)); }

void CheckUnionModels(HostRig& rig, OracleSuite& suite, std::string& surface) {
  for (size_t n = 0; n < rig.nyms.size(); ++n) {
    Nym* nym = rig.nyms[n];
    if (nym == nullptr) {
      continue;
    }
    UnionFs& fs = nym->anon_vm()->disk().fs();
    for (const auto& [path, expected] : rig.models[n]) {
      auto blob = fs.ReadFile(path);
      if (!blob.ok()) {
        suite.Fail("unionfs-model", "model has '" + path + "' on " + rig.names[n] +
                                        " but ReadFile failed: " + blob.status().ToString());
        return;
      }
      if (blob->Materialize() != expected) {
        suite.Fail("unionfs-model",
                   "content mismatch at '" + path + "' on " + rig.names[n]);
        return;
      }
    }
    // Paths the model does NOT hold must not exist (a stale whiteout or a
    // resurrected file would show up here).
    for (int64_t id = 0; id < 16; ++id) {
      std::string path = FuzzPath(id);
      if (rig.models[n].count(path) == 0 && fs.Exists(path)) {
        suite.Fail("unionfs-model",
                   "'" + path + "' exists on " + rig.names[n] + " but the model deleted it");
        return;
      }
    }
  }
  surface += "unionfs models verified\n";
}

void RunHostFamily(const Scenario& scenario, const RunnerOptions& options, OracleSuite& suite,
                   std::string& surface) {
  HostRig rig(scenario.seed);
  rig.obs.EnableAll();
  rig.obs.trace.set_record_wall_time(false);
  rig.obs.metrics.set_record_wall_time(false);
  rig.bed.sim().loop().set_observability(&rig.obs);
  rig.bed.host().uplink()->AttachCapture(&rig.capture);
  rig.bed.host().EmitDhcp();

  Prng scrub_prng(Mix64(scenario.seed ^ Fnv1a64("fuzz.scrub")));
  std::vector<Website*> sites = rig.bed.sites().all();

  // --- boot the cast --------------------------------------------------
  int nym_count = static_cast<int>(ClampI(scenario.topology.nym_count, 1, 3));
  for (int i = 0; i < nym_count; ++i) {
    std::string name = "fz" + std::to_string(i);
    bool fired = false;
    Result<Nym*> created = InternalError("pending");
    rig.bed.manager().CreateNym(name, NymManager::CreateOptions{},
                                [&](Result<Nym*> nym, NymStartupReport) {
                                  created = std::move(nym);
                                  fired = true;
                                });
    if (!Await(rig, fired)) {
      suite.Fail("ops-terminate", "CreateNym('" + name + "') completion never fired");
      return;
    }
    rig.names.push_back(name);
    rig.models.emplace_back();
    if (created.ok()) {
      rig.nyms.push_back(*created);
      Status mkdir = (*created)->anon_vm()->disk().fs().Mkdir("/fuzz", /*recursive=*/true);
      (void)mkdir;  // already-exists is fine
      if (options.plant_nat_leak) {
        PlantNatLeak(*created);
      }
    } else {
      rig.nyms.push_back(nullptr);
      surface += "create " + name + " err=" + created.status().ToString() + "\n";
    }
  }

  // --- execute the step list ------------------------------------------
  for (const ScenarioStep& step : scenario.steps) {
    int n = Wrap(step.a, nym_count);
    Nym* nym = rig.nyms[static_cast<size_t>(n)];
    switch (step.kind) {
      case StepKind::kHostVisit: {
        if (nym == nullptr || sites.empty()) {
          surface += "visit skip (no nym)\n";
          break;
        }
        Website* site = sites[static_cast<size_t>(Wrap(step.b, static_cast<int>(sites.size())))];
        bool fired = false;
        Result<SimTime> finished = InternalError("pending");
        nym->browser()->Visit(*site, [&](Result<SimTime> r) {
          finished = std::move(r);
          fired = true;
        });
        if (!Await(rig, fired)) {
          suite.Fail("ops-terminate", "Visit completion never fired (nym " +
                                          rig.names[static_cast<size_t>(n)] + ")");
          return;
        }
        surface += "visit " + rig.names[static_cast<size_t>(n)] +
                   (finished.ok() ? " ok t=" + std::to_string(*finished)
                                  : " err=" + finished.status().ToString()) +
                   "\n";
        break;
      }
      case StepKind::kHostCrashRecover: {
        if (nym == nullptr) {
          surface += "crash skip (no nym)\n";
          break;
        }
        rig.bed.manager().InjectCrash(*nym);
        bool fired = false;
        Result<Nym*> recovered = InternalError("pending");
        rig.bed.manager().RecoverNym(nym, [&](Result<Nym*> r, NymStartupReport) {
          recovered = std::move(r);
          fired = true;
        });
        if (!Await(rig, fired)) {
          suite.Fail("ops-terminate", "RecoverNym completion never fired");
          return;
        }
        if (recovered.ok()) {
          rig.nyms[static_cast<size_t>(n)] = *recovered;
          if (options.plant_nat_leak) {
            PlantNatLeak(*recovered);  // recovery reinstalled the policy
          }
          surface += "recover " + rig.names[static_cast<size_t>(n)] + " ok\n";
        } else {
          // The wreck was torn down by the failed recovery; the slot is
          // gone for the rest of the scenario.
          rig.nyms[static_cast<size_t>(n)] = nullptr;
          surface += "recover " + rig.names[static_cast<size_t>(n)] +
                     " err=" + recovered.status().ToString() + "\n";
        }
        break;
      }
      case StepKind::kHostCheckpoint: {
        if (nym == nullptr) {
          break;
        }
        Status status = rig.bed.manager().CheckpointNym(*nym);
        surface += "checkpoint " + rig.names[static_cast<size_t>(n)] + " " +
                   (status.ok() ? "ok" : status.ToString()) + "\n";
        break;
      }
      case StepKind::kHostRelayCrash: {
        size_t relay = static_cast<size_t>(Wrap(step.a, 12));
        SimDuration restart_after = Millis(ClampI(step.b, 100, 5000));
        rig.bed.tor().CrashRelay(relay);
        TorNetwork* tor = &rig.bed.tor();
        rig.bed.sim().loop().ScheduleAfter(restart_after,
                                           [tor, relay] { tor->RestartRelay(relay); });
        surface += "relay_crash r" + std::to_string(relay) + "\n";
        break;
      }
      case StepKind::kHostUplinkFlap: {
        SimDuration duration = Millis(ClampI(step.a, 50, 2000));
        Link* uplink = rig.bed.host().uplink();
        uplink->SetDown(true);
        rig.bed.sim().loop().ScheduleAfter(duration, [uplink] { uplink->SetDown(false); });
        surface += "uplink_flap " + std::to_string(duration) + "us\n";
        break;
      }
      case StepKind::kHostUnionWrite: {
        if (nym == nullptr) {
          break;
        }
        std::string path = FuzzPath(step.b);
        Bytes content = Prng(Mix64(static_cast<uint64_t>(step.c)))
                            .NextBytes(static_cast<size_t>(ClampI(step.d, 0, 4096)));
        UnionFs& fs = nym->anon_vm()->disk().fs();
        Status wrote = fs.WriteFile(path, Blob::FromBytes(content));
        if (wrote.ok()) {
          rig.models[static_cast<size_t>(n)][path] = std::move(content);
        } else if (suite.enabled("unionfs-model")) {
          suite.Fail("unionfs-model", "WriteFile('" + path + "') failed: " + wrote.ToString());
          return;
        }
        break;
      }
      case StepKind::kHostUnionUnlink: {
        if (nym == nullptr) {
          break;
        }
        std::string path = FuzzPath(step.b);
        UnionFs& fs = nym->anon_vm()->disk().fs();
        bool model_has = rig.models[static_cast<size_t>(n)].count(path) > 0;
        Status unlinked = fs.Unlink(path);
        if (unlinked.ok() != model_has && suite.enabled("unionfs-model")) {
          suite.Fail("unionfs-model",
                     "Unlink('" + path + "') " + (unlinked.ok() ? "succeeded" : "failed") +
                         " but the model says the file " + (model_has ? "exists" : "does not exist"));
          return;
        }
        rig.models[static_cast<size_t>(n)].erase(path);
        break;
      }
      case StepKind::kHostScrub: {
        ScrubOptions scrub;
        switch (Wrap(step.a, 3)) {
          case 0:
            scrub.level = ParanoiaLevel::kMetadataOnly;
            break;
          case 1:
            scrub.level = ParanoiaLevel::kMetadataAndVisual;
            break;
          default:
            scrub.level = ParanoiaLevel::kRasterize;
            break;
        }
        ByteSpan data(step.payload.data(),
                      std::min<size_t>(step.payload.size(), 256 * kKiB));
        Result<RiskReport> before = AnalyzeFile(data);
        Result<ScrubResult> scrubbed = ScrubFile(data, scrub, scrub_prng);
        surface += "scrub kind=" +
                   std::string(before.ok() ? FileKindName(before->kind) : "err") +
                   (scrubbed.ok() ? " ok" : " err=" + scrubbed.status().ToString()) + "\n";
        if (scrubbed.ok() && suite.enabled("scrub-clean")) {
          Result<RiskReport> after = AnalyzeFile(scrubbed->data);
          if (!after.ok()) {
            suite.Fail("scrub-clean",
                       "scrub output does not re-analyze: " + after.status().ToString());
            return;
          }
          for (RiskType type : {RiskType::kGpsLocation, RiskType::kDeviceSerial,
                                RiskType::kAuthorIdentity}) {
            if (after->Has(type)) {
              suite.Fail("scrub-clean", "scrubbed file still carries " +
                                            std::string(RiskTypeName(type)));
              return;
            }
          }
        }
        break;
      }
      default:
        break;  // foreign-family step: no-op
    }
    if (!suite.ok()) {
      return;
    }
  }

  // --- end-of-run oracles ----------------------------------------------
  CheckUnionModels(rig, suite, surface);
  if (!suite.ok()) {
    return;
  }

  Nym* probe_from = nullptr;
  Nym* probe_other = nullptr;
  for (Nym* nym : rig.nyms) {
    if (nym == nullptr) {
      continue;
    }
    if (probe_from == nullptr) {
      probe_from = nym;
    } else if (probe_other == nullptr) {
      probe_other = nym;
    }
  }
  if (probe_from != nullptr && suite.enabled("nat-isolation")) {
    LeakProbeResult probes =
        ProbeAnonVmIsolation(rig.bed.sim(), rig.bed.host(), *probe_from, probe_other);
    surface += "probes sent=" + std::to_string(probes.probes_sent) +
               " answered=" + std::to_string(probes.responses_received) + "\n";
    if (probes.responses_received != 0) {
      suite.Fail("nat-isolation",
                 std::to_string(probes.responses_received) + " of " +
                     std::to_string(probes.probes_sent) +
                     " AnonVM probes were ANSWERED — identity boundary breached");
      return;
    }
    CaptureAudit audit = AuditUplinkCapture(rig.capture);
    if (!audit.Passed()) {
      std::string classes;
      for (const auto& [annotation, count] : audit.histogram) {
        classes += annotation + "=" + std::to_string(count) + " ";
      }
      suite.Fail("nat-isolation", "uplink capture not clean: " + classes);
      return;
    }
  }

  // --- checkpoint → crash → restore → re-checkpoint identity ------------
  if (scenario.topology.checkpoint_roundtrip && probe_from != nullptr &&
      suite.enabled("checkpoint-identity")) {
    KvStore first;
    Status checkpointed = CheckpointHost(rig.bed.manager(), "host/0", first);
    if (!checkpointed.ok()) {
      suite.Fail("checkpoint-identity", "CheckpointHost failed: " + checkpointed.ToString());
      return;
    }
    for (Nym* nym : rig.nyms) {
      if (nym != nullptr) {
        rig.bed.manager().InjectCrash(*nym);
      }
    }
    int restored = 0;
    Status restore = RestoreHost(rig.bed.manager(), "host/0", first, &restored);
    if (!restore.ok()) {
      suite.Fail("checkpoint-identity", "RestoreHost failed: " + restore.ToString());
      return;
    }
    // Drive the restored boots to quiescence before re-checkpointing.
    NymManager* manager = &rig.bed.manager();
    std::vector<std::string> live_names;
    for (size_t i = 0; i < rig.nyms.size(); ++i) {
      if (rig.nyms[i] != nullptr) {
        live_names.push_back(rig.names[i]);
      }
    }
    bool ready = rig.bed.sim().loop().RunUntilCondition([manager, &live_names] {
      for (const std::string& name : live_names) {
        Nym* nym = manager->FindNym(name);
        if (nym == nullptr || nym->anonymizer() == nullptr || !nym->anonymizer()->ready()) {
          return false;
        }
      }
      return true;
    });
    if (!ready) {
      suite.Fail("ops-terminate", "restored nyms never became ready");
      return;
    }
    KvStore second;
    Status recheck = CheckpointHost(rig.bed.manager(), "host/0", second);
    if (!recheck.ok()) {
      suite.Fail("checkpoint-identity", "re-CheckpointHost failed: " + recheck.ToString());
      return;
    }
    if (first.log() != second.log()) {
      suite.Fail("checkpoint-identity",
                 "restored host re-checkpoints differently: " +
                     std::to_string(first.log().size()) + " vs " +
                     std::to_string(second.log().size()) + " log bytes");
      return;
    }
    surface += "checkpoint roundtrip ok restored=" + std::to_string(restored) + "\n";
  }

  // Fold the trace into the outcome surface: replay byte-identity covers
  // the entire event stream, not just the ad-hoc log lines above.
  surface += rig.obs.trace.ToChromeJson();
  std::ostringstream metrics;
  rig.obs.metrics.WriteJson(metrics);
  surface += metrics.str();
}

// ----------------------------------------------------------- fleet family

struct FleetRunResult {
  std::string trace;
  std::string stats;
  uint64_t visits = 0;
  uint64_t churns = 0;
  uint64_t visit_failures = 0;
  uint64_t vm_recoveries = 0;
  uint64_t slots_abandoned = 0;
};

FleetRunResult RunFleetOnce(const Scenario& scenario, int threads) {
  const ScenarioTopology& t = scenario.topology;
  FleetOptions options;
  options.nym_count = static_cast<int>(ClampI(t.nym_count, 1, 8));
  options.nyms_per_host = static_cast<int>(ClampI(t.nyms_per_host, 1, 4));
  options.visits_per_generation = static_cast<int>(ClampI(t.visits, 1, 3));
  options.generations = static_cast<int>(ClampI(t.generations, 1, 2));
  int shards = static_cast<int>(ClampI(t.shards, 1, 4));
  int hosts = (options.nym_count + options.nyms_per_host - 1) / options.nyms_per_host;

  ShardedSimulation sharded(scenario.seed, ShardPlan{shards, threads});
  sharded.EnableObservability(/*record_wall_time=*/false);
  ShardedFleet fleet(sharded, options, scenario.seed);

  for (const ScenarioStep& step : scenario.steps) {
    switch (step.kind) {
      case StepKind::kFleetVmCrash: {
        int host = Wrap(step.a, hosts);
        fleet.ScheduleVmCrash(host, Millis(ClampI(step.b, 0, 60'000)));
        break;
      }
      case StepKind::kFleetUplinkFlap: {
        int host = Wrap(step.a, hosts);
        Link* uplink = fleet.host_machine(host).uplink();
        EventLoop& loop = sharded.shard(fleet.shard_of_host(host)).loop();
        SimTime down_at = Millis(ClampI(step.b, 0, 60'000));
        SimDuration duration = Millis(ClampI(step.c, 50, 5000));
        loop.ScheduleAt(down_at, [uplink] { uplink->SetDown(true); });
        loop.ScheduleAt(down_at + duration, [uplink] { uplink->SetDown(false); });
        break;
      }
      case StepKind::kFleetRelayCrash: {
        int host = Wrap(step.a, hosts);
        TorNetwork* tor = &fleet.tor(host);
        size_t relay = static_cast<size_t>(Wrap(step.b, 6));
        EventLoop& loop = sharded.shard(fleet.shard_of_host(host)).loop();
        SimTime crash_at = Millis(ClampI(step.c, 0, 60'000));
        SimDuration restart_after = Millis(ClampI(step.d, 100, 5000));
        loop.ScheduleAt(crash_at, [tor, relay] { tor->CrashRelay(relay); });
        loop.ScheduleAt(crash_at + restart_after, [tor, relay] { tor->RestartRelay(relay); });
        break;
      }
      default:
        break;  // foreign-family step: no-op
    }
  }

  fleet.Run();
  sharded.MergeObservability();

  FleetRunResult result;
  result.trace = sharded.merged().trace.ToChromeJson();
  std::ostringstream stats;
  sharded.merged().metrics.WriteJson(stats);
  stats << fleet.visits() << "/" << fleet.churns() << "/" << fleet.visit_failures() << "/"
        << fleet.vm_recoveries() << "/" << fleet.slots_abandoned();
  result.stats = stats.str();
  result.visits = fleet.visits();
  result.churns = fleet.churns();
  result.visit_failures = fleet.visit_failures();
  result.vm_recoveries = fleet.vm_recoveries();
  result.slots_abandoned = fleet.slots_abandoned();
  return result;
}

void RunFleetFamily(const Scenario& scenario, OracleSuite& suite, std::string& surface) {
  const ScenarioTopology& t = scenario.topology;
  int threads = static_cast<int>(ClampI(t.threads, 1, 8));
  FleetRunResult base = RunFleetOnce(scenario, /*threads=*/1);
  surface += "fleet visits=" + std::to_string(base.visits) +
             " churns=" + std::to_string(base.churns) +
             " vfail=" + std::to_string(base.visit_failures) +
             " recov=" + std::to_string(base.vm_recoveries) +
             " abandoned=" + std::to_string(base.slots_abandoned) + "\n";
  surface += base.trace;
  surface += base.stats;

  if (suite.enabled("fleet-accounting")) {
    int nyms = static_cast<int>(ClampI(t.nym_count, 1, 8));
    int visits = static_cast<int>(ClampI(t.visits, 1, 3));
    int generations = static_cast<int>(ClampI(t.generations, 1, 2));
    uint64_t crash_steps = 0;
    bool any_fault = false;
    for (const ScenarioStep& step : scenario.steps) {
      if (FamilyOfStep(step.kind) == ScenarioFamily::kFleet) {
        any_fault = true;
        if (step.kind == StepKind::kFleetVmCrash) {
          ++crash_steps;
        }
      }
    }
    uint64_t expected_visits =
        static_cast<uint64_t>(nyms) * static_cast<uint64_t>(visits) *
        static_cast<uint64_t>(generations);
    if (!any_fault &&
        (base.visits != expected_visits || base.visit_failures != 0 ||
         base.slots_abandoned != 0 || base.vm_recoveries != 0)) {
      suite.Fail("fleet-accounting",
                 "fault-free run: visits=" + std::to_string(base.visits) + " (expected " +
                     std::to_string(expected_visits) + "), failures=" +
                     std::to_string(base.visit_failures) + ", abandoned=" +
                     std::to_string(base.slots_abandoned));
    } else if (base.vm_recoveries > crash_steps) {
      suite.Fail("fleet-accounting", "more VM recoveries (" +
                                         std::to_string(base.vm_recoveries) +
                                         ") than scheduled crashes (" +
                                         std::to_string(crash_steps) + ")");
    } else if (base.slots_abandoned > static_cast<uint64_t>(nyms)) {
      suite.Fail("fleet-accounting", "abandoned more slots than exist");
    }
  }
  if (!suite.ok()) {
    return;
  }

  if (threads > 1 && suite.enabled("trace-identity")) {
    FleetRunResult other = RunFleetOnce(scenario, threads);
    if (other.trace != base.trace) {
      suite.Fail("trace-identity", "fleet trace diverged between --threads=1 and --threads=" +
                                       std::to_string(threads));
    } else if (other.stats != base.stats) {
      suite.Fail("trace-identity", "fleet metrics diverged between --threads=1 and --threads=" +
                                       std::to_string(threads));
    }
  }
}

// --------------------------------------------------------- decoder family

void RunDecoderFamily(const Scenario& scenario, OracleSuite& suite, std::string& surface) {
  Prng scrub_prng(Mix64(scenario.seed ^ Fnv1a64("fuzz.scrub")));
  int index = 0;
  for (const ScenarioStep& step : scenario.steps) {
    std::string label = "step" + std::to_string(index++);
    ByteSpan data(step.payload.data(), std::min<size_t>(step.payload.size(), 256 * kKiB));
    switch (step.kind) {
      case StepKind::kDecodeRecordLog: {
        ScanResult scan = ScanRecordLog(data);
        surface += label + " recordlog tail=" + std::to_string(static_cast<int>(scan.tail)) +
                   " records=" + std::to_string(scan.records.size()) +
                   " valid=" + std::to_string(scan.valid_bytes) + "\n";
        if (scan.valid_bytes > data.size()) {
          suite.Fail("decoder-sane", "ScanRecordLog claims " + std::to_string(scan.valid_bytes) +
                                         " valid bytes of a " + std::to_string(data.size()) +
                                         "-byte buffer");
          return;
        }
        Result<std::vector<Record>> strict = ReadRecordLog(data);
        if (scan.clean() != strict.ok()) {
          suite.Fail("decoder-sane",
                     std::string("Scan says ") + (scan.clean() ? "clean" : "damaged") +
                         " but strict ReadRecordLog " + (strict.ok() ? "succeeded" : "failed"));
          return;
        }
        // Resuming a writer on the valid prefix must yield a clean log.
        Bytes prefix(data.begin(), data.begin() + static_cast<ptrdiff_t>(scan.valid_bytes));
        if (scan.tail != LogTail::kBadHeader) {
          RecordLogWriter writer(std::move(prefix));
          writer.Append(7, BytesFromString("tail-probe"));
          if (!ScanRecordLog(writer.bytes()).clean()) {
            suite.Fail("decoder-sane", "append after recovery does not produce a clean log");
            return;
          }
        }
        break;
      }
      case StepKind::kDecodeKv: {
        Result<KvRecoverResult> recovered = KvStore::Recover(data);
        if (!recovered.ok()) {
          surface += label + " kv err=" + recovered.status().ToString() + "\n";
          break;
        }
        surface += label + " kv keys=" + std::to_string(recovered->store.size()) +
                   " valid=" + std::to_string(recovered->valid_bytes) +
                   " lost=" + std::to_string(recovered->lost_bytes) + "\n";
        if (recovered->valid_bytes + recovered->lost_bytes > data.size() + kMiB) {
          suite.Fail("decoder-sane", "KvStore::Recover byte accounting exceeds the input");
          return;
        }
        // The recovered store's own log must re-open strictly.
        Result<KvStore> reopened = KvStore::Open(recovered->store.log());
        if (!reopened.ok()) {
          suite.Fail("decoder-sane", "recovered KvStore log does not re-open: " +
                                         reopened.status().ToString());
          return;
        }
        if (reopened->size() != recovered->store.size()) {
          suite.Fail("decoder-sane", "recovered KvStore re-opens with a different key count");
          return;
        }
        break;
      }
      case StepKind::kDecodeNbt: {
        Result<NbtRecovered> recovered = RecoverNbt(data);
        if (!recovered.ok()) {
          surface += label + " nbt err=" + recovered.status().ToString() + "\n";
          break;
        }
        surface += label + " nbt events=" + std::to_string(recovered->events_recovered) +
                   " valid=" + std::to_string(recovered->valid_bytes) +
                   " lost=" + std::to_string(recovered->lost_bytes) + "\n";
        // A recovered document must re-encode and strictly re-decode.
        Bytes reencoded = EncodeNbt(recovered->doc.has_trace ? &recovered->doc.trace : nullptr,
                                    recovered->doc.has_metrics ? &recovered->doc.metrics : nullptr);
        Result<NbtDocument> redecoded = DecodeNbt(reencoded);
        if (!redecoded.ok()) {
          suite.Fail("decoder-sane", "recovered NBT does not re-encode cleanly: " +
                                         redecoded.status().ToString());
          return;
        }
        if (NbtToJson(*redecoded) != NbtToJson(recovered->doc)) {
          suite.Fail("decoder-sane", "NBT re-encode changes the JSON view");
          return;
        }
        break;
      }
      case StepKind::kDecodeScenario: {
        Result<Scenario> parsed = ScenarioFromText(StringFromBytes(data));
        if (!parsed.ok()) {
          surface += label + " scenario err\n";
          break;
        }
        surface += label + " scenario steps=" + std::to_string(parsed->steps.size()) + "\n";
        // Canonical stability: print → parse must be the identity on the
        // parsed value (otherwise corpus files rot as they round-trip).
        Result<Scenario> reparsed = ScenarioFromText(ScenarioToText(*parsed));
        if (!reparsed.ok() || !(*reparsed == *parsed)) {
          suite.Fail("decoder-sane", "scenario text round-trip is not the identity");
          return;
        }
        break;
      }
      case StepKind::kScrubBytes: {
        ScrubOptions scrub;
        scrub.level = Wrap(step.a, 3) == 0   ? ParanoiaLevel::kMetadataOnly
                      : Wrap(step.a, 3) == 1 ? ParanoiaLevel::kMetadataAndVisual
                                             : ParanoiaLevel::kRasterize;
        Result<RiskReport> analyzed = AnalyzeFile(data);
        Result<ScrubResult> scrubbed = ScrubFile(data, scrub, scrub_prng);
        surface += label + " scrub " + (analyzed.ok() ? "analyzed" : "unanalyzable") +
                   (scrubbed.ok() ? " ok" : " rejected") + "\n";
        if (scrubbed.ok() && suite.enabled("scrub-clean")) {
          Result<RiskReport> after = AnalyzeFile(scrubbed->data);
          if (!after.ok()) {
            suite.Fail("scrub-clean", "scrub output does not re-analyze: " +
                                          after.status().ToString());
            return;
          }
        }
        break;
      }
      default:
        surface += label + " foreign-step noop\n";
        break;
    }
  }
}

// -------------------------------------------------------- parallel family

// One end of a windowed channel: counts arrivals into the owning shard's
// metrics, and (when the scenario enabled echo on this channel) replies on
// the direction's next promised send window until the deadline. Replying
// anywhere else would trip the send-window CHECK in Link::Send — the
// promise is a hard contract, and this harness stays inside it by
// construction so every generated/shrunk scenario is runnable.
class WindowedSink : public PacketSink {
 public:
  WindowedSink(EventLoop& loop, Link* out, const SendSchedule& schedule, std::string name,
               SimTime deadline, const bool& echo)
      : loop_(loop), out_(out), schedule_(schedule), name_(std::move(name)),
        deadline_(deadline), echo_(echo) {}

  void OnPacket(const Packet&, Link&, bool) override {
    ++delivered_;
    if (MetricsRegistry* meters = loop_.meters()) {
      meters->GetCounter("fuzz.par." + name_)->Increment();
    }
    if (echo_ && loop_.now() < deadline_) {
      SimTime window = NextSendWindow(schedule_, loop_.now());
      Link* out = out_;
      std::string name = name_;
      loop_.ScheduleAt(window, [out, name] {
        Packet packet;
        packet.payload = Bytes(64);
        packet.annotation = name;
        out->SendFromA(std::move(packet));
      });
    }
  }

  uint64_t delivered() const { return delivered_; }

 private:
  EventLoop& loop_;
  Link* out_;
  SendSchedule schedule_;
  std::string name_;
  SimTime deadline_;
  const bool& echo_;  // owned by the channel record; set before the run
  uint64_t delivered_ = 0;
};

struct ParRunResult {
  std::string trace;
  std::string stats;
  uint64_t deliveries = 0;
};

ParRunResult RunParallelOnce(const Scenario& scenario, int threads,
                             const GoldenEmit* golden = nullptr) {
  const ScenarioTopology& t = scenario.topology;
  int shards = static_cast<int>(ClampI(t.shards, 1, 4));
  SimTime deadline = Millis(ClampI(t.echo_deadline_ms, 200, 3000));

  ShardedSimulation sharded(scenario.seed, ShardPlan{shards, threads});
  sharded.EnableObservability(/*record_wall_time=*/false);

  struct ParChannel {
    CrossShardChannel* channel = nullptr;
    int shard_a = 0;
    int shard_b = 0;
    std::unique_ptr<WindowedSink> sink_a;
    std::unique_ptr<WindowedSink> sink_b;
    std::unique_ptr<bool> echo = std::make_unique<bool>(false);
  };
  std::vector<ParChannel> channels;

  for (const ScenarioStep& step : scenario.steps) {
    switch (step.kind) {
      case StepKind::kParChannel: {
        if (shards < 2) {
          break;  // needs two shards; shrunk to no-op
        }
        ParChannel par;
        par.shard_a = Wrap(step.a, shards);
        par.shard_b = (par.shard_a + 1 + Wrap(step.b, shards - 1)) % shards;
        SimDuration latency = Millis(ClampI(step.c, 1, 250));
        SimDuration window = Millis(ClampI(step.d, 0, 2000));  // 0 = unconstrained
        std::string id = std::to_string(channels.size());
        par.channel = sharded.CreateChannel("par-ch" + id, par.shard_a, par.shard_b, latency,
                                            4'000'000);
        // Offset phases so opposite directions never share an instant.
        par.channel->PromiseSendWindows(SendSchedule{window, 0},
                                        SendSchedule{window, window / 2});
        par.sink_a = std::make_unique<WindowedSink>(
            sharded.shard(par.shard_a).loop(), par.channel->a_end(),
            par.channel->schedule_a_to_b(), "ch" + id + ".a", deadline, *par.echo);
        par.sink_b = std::make_unique<WindowedSink>(
            sharded.shard(par.shard_b).loop(), par.channel->b_end(),
            par.channel->schedule_b_to_a(), "ch" + id + ".b", deadline, *par.echo);
        par.channel->a_end()->AttachA(par.sink_a.get());
        par.channel->b_end()->AttachA(par.sink_b.get());
        channels.push_back(std::move(par));
        break;
      }
      case StepKind::kParBurst: {
        if (channels.empty()) {
          break;
        }
        ParChannel& par = channels[static_cast<size_t>(
            Wrap(step.a, static_cast<int>(channels.size())))];
        bool from_a = (step.b % 2) == 0;
        int shard = from_a ? par.shard_a : par.shard_b;
        Link* out = from_a ? par.channel->a_end() : par.channel->b_end();
        SendSchedule schedule =
            from_a ? par.channel->schedule_a_to_b() : par.channel->schedule_b_to_a();
        SimTime at = Millis(ClampI(step.c, 0, 3000));
        int count = static_cast<int>(ClampI(step.d, 1, 5));
        EventLoop& loop = sharded.shard(shard).loop();
        // Two hops: land on the requested tick, then snap the burst onto
        // the direction's next promised window.
        loop.ScheduleAt(at, [&loop, out, schedule, count] {
          loop.ScheduleAt(NextSendWindow(schedule, loop.now()), [out, count] {
            for (int k = 0; k < count; ++k) {
              Packet packet;
              packet.payload = Bytes(64);
              packet.annotation = "burst" + std::to_string(k);
              out->SendFromA(std::move(packet));
            }
          });
        });
        break;
      }
      case StepKind::kParEcho: {
        if (channels.empty()) {
          break;
        }
        *channels[static_cast<size_t>(Wrap(step.a, static_cast<int>(channels.size())))].echo =
            true;
        break;
      }
      default:
        break;  // foreign-family step: no-op by the closure rule
    }
  }

  sharded.RunUntilIdle();
  sharded.MergeObservability();
  if (golden != nullptr) {
    (*golden)(sharded.merged().trace, sharded.merged().metrics);
  }

  ParRunResult result;
  result.trace = sharded.merged().trace.ToChromeJson();
  std::ostringstream stats;
  sharded.merged().metrics.WriteJson(stats);
  // Epoch structure and cross-delivery totals are part of the identity
  // surface: an executor change that alters horizons shows up here even
  // when the trace happens to coincide.
  stats << " epochs=" << sharded.epochs() << " xdeliv=" << sharded.cross_deliveries();
  for (const ParChannel& par : channels) {
    stats << " " << par.sink_a->delivered() << "/" << par.sink_b->delivered();
  }
  result.stats = stats.str();
  result.deliveries = sharded.cross_deliveries();
  return result;
}

void RunParallelFamily(const Scenario& scenario, OracleSuite& suite, std::string& surface) {
  int threads = static_cast<int>(ClampI(scenario.topology.threads, 1, 8));
  ParRunResult base = RunParallelOnce(scenario, /*threads=*/1);
  surface += "parallel deliveries=" + std::to_string(base.deliveries) + "\n";
  surface += base.trace;
  surface += base.stats;

  if (threads > 1 && suite.enabled("trace-identity")) {
    ParRunResult other = RunParallelOnce(scenario, threads);
    if (other.trace != base.trace) {
      suite.Fail("trace-identity",
                 "windowed-storm trace diverged between --threads=1 and --threads=" +
                     std::to_string(threads));
    } else if (other.stats != base.stats) {
      suite.Fail("trace-identity",
                 "windowed-storm metrics/epochs diverged between --threads=1 and --threads=" +
                     std::to_string(threads));
    }
  }
}

// -------------------------------------------------------- adversary family

// Steps configure the experiment (last write wins); the runner clamps the
// shape so every generated scenario is a meaningful leak-quantification
// run: nyms_per_host is pinned to 2 and nym_count kept even so a planted
// same-host leak always has positive pairs (with singleton hosts the
// true-positive class is empty and advantage is undefined).
struct AdvRunResult {
  std::string trace;
  std::string stats;
  AdversaryReport report;
};

AdversaryOptions AdversaryOptionsFor(const Scenario& scenario) {
  const ScenarioTopology& t = scenario.topology;
  AdversaryOptions options;
  options.nyms_per_host = 2;
  options.nym_count = 4 + 2 * Wrap(t.nym_count, 3);  // 4, 6, or 8
  options.generations = static_cast<int>(ClampI(t.generations, 1, 2));
  for (const ScenarioStep& step : scenario.steps) {
    switch (step.kind) {
      case StepKind::kAdvPlant:
        options.plant = static_cast<LeakPlant>(Wrap(step.a, 4));
        break;
      case StepKind::kAdvWorkload:
        options.workload = static_cast<WorkloadMix>(Wrap(step.a, 4));
        break;
      case StepKind::kAdvChurn:
        options.generations = static_cast<int>(ClampI(step.a, 1, 2));
        break;
      default:
        break;  // foreign-family step: no-op by the closure rule
    }
  }
  return options;
}

AdvRunResult RunAdversaryOnce(const Scenario& scenario, int threads,
                              const GoldenEmit* golden = nullptr) {
  int shards = static_cast<int>(ClampI(scenario.topology.shards, 1, 4));
  AdversaryOptions options = AdversaryOptionsFor(scenario);

  ShardedSimulation sharded(scenario.seed, ShardPlan{shards, threads});
  sharded.EnableObservability(/*record_wall_time=*/false);
  AdversaryExperiment experiment(sharded, options, scenario.seed);
  experiment.Run();
  sharded.MergeObservability();
  if (golden != nullptr) {
    (*golden)(sharded.merged().trace, sharded.merged().metrics);
  }

  AdvRunResult result;
  result.report = experiment.Analyze();
  result.trace = sharded.merged().trace.ToChromeJson();

  MetricsRegistry adversary_metrics;
  adversary_metrics.set_enabled(true);
  adversary_metrics.set_record_wall_time(false);
  AdversaryExperiment::ExportMetrics(result.report, adversary_metrics);
  std::ostringstream stats;
  sharded.merged().metrics.WriteJson(stats);
  stats << "\n";
  adversary_metrics.WriteJson(stats);
  stats << " visits=" << experiment.visits() << " churns=" << experiment.churns();
  result.stats = stats.str();
  return result;
}

void RunAdversaryFamily(const Scenario& scenario, OracleSuite& suite, std::string& surface) {
  AdversaryOptions options = AdversaryOptionsFor(scenario);
  LeakPlant plant = options.plant;
  // The scrub plant leaks only through uploads: under a workload with no
  // upload site every stain is empty and the fleet is indistinguishable
  // from clean, so the oracle holds it to the clean floor instead.
  bool plant_observable =
      plant != LeakPlant::kNone &&
      !(plant == LeakPlant::kDisabledScrub && options.workload != WorkloadMix::kUpload &&
        options.workload != WorkloadMix::kMixed);

  int threads = static_cast<int>(ClampI(scenario.topology.threads, 1, 8));
  AdvRunResult base = RunAdversaryOnce(scenario, /*threads=*/1);
  char line[160];
  std::snprintf(line, sizeof(line),
                "adversary plant=%s advantage=%.6f linkage=%.6f instances=%llu\n",
                std::string(LeakPlantName(plant)).c_str(), base.report.linkage.advantage,
                base.report.linkage.linkage_probability,
                static_cast<unsigned long long>(base.report.nym_instances));
  surface += line;
  surface += base.trace;
  surface += base.stats;

  if (suite.enabled("adversary-leak")) {
    double advantage = base.report.linkage.advantage;
    if (!plant_observable && advantage > 0.1) {
      std::snprintf(line, sizeof(line),
                    "clean fleet linked with advantage %.6f (> 0.1 floor)", advantage);
      suite.Fail("adversary-leak", line);
    } else if (plant_observable && advantage < 0.9) {
      std::snprintf(line, sizeof(line), "planted %s escaped: advantage %.6f (< 0.9 bar)",
                    std::string(LeakPlantName(plant)).c_str(), advantage);
      suite.Fail("adversary-leak", line);
    }
  }

  if (threads > 1 && suite.enabled("trace-identity")) {
    AdvRunResult other = RunAdversaryOnce(scenario, threads);
    if (other.trace != base.trace) {
      suite.Fail("trace-identity",
                 "adversary trace diverged between --threads=1 and --threads=" +
                     std::to_string(threads));
    } else if (other.stats != base.stats) {
      suite.Fail("trace-identity",
                 "adversary metrics diverged between --threads=1 and --threads=" +
                     std::to_string(threads));
    }
  }
}

}  // namespace

RunReport RunScenario(const Scenario& scenario, const RunnerOptions& options) {
  OracleSuite suite(options.disabled_oracles);
  std::string surface;
  switch (scenario.family) {
    case ScenarioFamily::kNet:
      RunNetFamily(scenario, suite, surface);
      break;
    case ScenarioFamily::kHost:
      RunHostFamily(scenario, options, suite, surface);
      break;
    case ScenarioFamily::kFleet:
      RunFleetFamily(scenario, suite, surface);
      break;
    case ScenarioFamily::kDecoder:
      RunDecoderFamily(scenario, suite, surface);
      break;
    case ScenarioFamily::kParallel:
      RunParallelFamily(scenario, suite, surface);
      break;
    case ScenarioFamily::kAdversary:
      RunAdversaryFamily(scenario, suite, surface);
      break;
  }
  RunReport report;
  report.ok = suite.ok();
  report.oracle = suite.failed_oracle();
  report.detail = suite.detail();
  report.digest = DigestOf(surface);
  report.steps_executed = scenario.steps.size();
  return report;
}

Status RunScenarioGolden(
    const Scenario& scenario,
    const std::function<void(const TraceRecorder& trace, const MetricsRegistry& metrics)>& emit) {
  switch (scenario.family) {
    case ScenarioFamily::kParallel:
      RunParallelOnce(scenario, /*threads=*/1, &emit);
      return OkStatus();
    case ScenarioFamily::kAdversary:
      RunAdversaryOnce(scenario, /*threads=*/1, &emit);
      return OkStatus();
    default:
      return InvalidArgumentError(
          "golden promotion supports the parallel and adversary families, not '" +
          std::string(ScenarioFamilyName(scenario.family)) + "'");
  }
}

}  // namespace nymix
