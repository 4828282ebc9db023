// nymbench: one run of one host-cost benchmark workload (driven by run.py).
//
// The program under test is measured from outside: every timing below is a
// span this file places around a call into the public API of src/unionfs,
// src/core, src/hv, src/adversary, src/obs or src/store, and every count is
// an accessor or metric the program already exposes. Nothing here adds
// instrumentation to src/.
//
// One invocation builds the workload from --seed, times set-up ("setup":
// until the first simulated event) and the run ("run": Run() or the first
// persist cycle to quiescence, plus post-run analysis), and prints one JSON
// object on stdout: host timings, peak RSS, attempted/failed operation
// counts, the virtual-time outputs run.py checks against expected.json, the
// per-layer values, and the benchmark's own spans. --trace turns on the
// program's own observability (wall time recorded) and adds the layer
// counters that only it can give; the virtual-time outputs must not move.
//
// Usage:
//   nymbench --workload=fleet_churn|fleet_crossed|adversary_mixed|nym_persist
//            --seed=N [--trace | --setup-only] [--tiny] [--threads=N]
//            [--placement=CSV]
//   nymbench --workload=fleet_crossed --seed=N --calibrate [--tiny]
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/adversary/experiment.h"
#include "src/core/fleet.h"
#include "src/core/testbed.h"
#include "src/obs/json.h"
#include "src/store/nbt.h"
#include "src/util/thread_pool.h"

using namespace nymix;

namespace {

constexpr const char* kUsage =
    "usage: nymbench --workload=fleet_churn|fleet_crossed|adversary_mixed|nym_persist\n"
    "                --seed=N [--trace | --setup-only] [--tiny] [--threads=N]\n"
    "                [--placement=CSV]\n"
    "       nymbench --workload=fleet_crossed --seed=N --calibrate [--tiny]\n"
    "\n"
    "Runs one workload once and prints one JSON object (see run.py).\n"
    "  --workload=NAME  workload to run\n"
    "  --seed=N         workload seed (unsigned 64-bit)\n"
    "  --trace          enable the program's observability and report layer counters\n"
    "  --setup-only     stop after set-up (extra set-up time samples)\n"
    "  --tiny           self-test size: 8 nyms, 2 persist cycles\n"
    "  --threads=N      fleet_crossed worker threads (default 1)\n"
    "  --placement=CSV  fleet_crossed host->shard table from --calibrate\n"
    "  --calibrate      fleet_crossed: print the BalancedPlacement for the seed\n";

// Fleet shapes. fleet_churn/fleet_crossed: 32 hosts x 8 nyms on 8 shards;
// adversary_mixed: 64 hosts x 2 nyms on 4 shards; nym_persist: 4 nyms x 40
// save/restore cycles on one host (Figure 6 shape).
constexpr int kFleetShards = 8;
constexpr int kAdversaryShards = 4;
constexpr const char* kPersistSites[] = {"Gmail", "Facebook", "Twitter", "TorBlog"};

[[noreturn]] void UsageError(const std::string& message) {
  std::fprintf(stderr, "nymbench: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

bool ParseUint(const std::string& text, uint64_t* out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return !text.empty() && ec == std::errc() && ptr == end;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  bool have_seed = false;
  bool trace = false;
  bool tiny = false;
  bool calibrate = false;
  bool setup_only = false;
  int threads = 1;
  ShardPlacement placement;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    const bool has_value = eq != std::string::npos;
    auto flag = [&](const char* name) {
      if (has_value) {
        UsageError(std::string(name) + " takes no value");
      }
    };
    auto need = [&](const char* name) {
      if (!has_value || value.empty()) {
        UsageError(std::string(name) + " needs a value");
      }
    };
    if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      std::exit(0);
    } else if (arg == "--workload") {
      need("--workload");
      if (value != "fleet_churn" && value != "fleet_crossed" && value != "adversary_mixed" &&
          value != "nym_persist") {
        UsageError("unknown workload \"" + value + "\"");
      }
      args.workload = value;
    } else if (arg == "--seed") {
      need("--seed");
      if (!ParseUint(value, &args.seed)) {
        UsageError("malformed --seed \"" + value + "\"");
      }
      args.have_seed = true;
    } else if (arg == "--threads") {
      need("--threads");
      uint64_t threads = 0;
      if (!ParseUint(value, &threads) || threads < 1 || threads > 256) {
        UsageError("malformed --threads \"" + value + "\" (want 1..256)");
      }
      args.threads = static_cast<int>(threads);
    } else if (arg == "--placement") {
      need("--placement");
      size_t pos = 0;
      while (pos <= value.size()) {
        size_t comma = std::min(value.find(',', pos), value.size());
        uint64_t shard = 0;
        if (!ParseUint(value.substr(pos, comma - pos), &shard) || shard >= kFleetShards) {
          UsageError("malformed --placement \"" + value + "\"");
        }
        args.placement.shard_of_host.push_back(static_cast<int>(shard));
        pos = comma + 1;
      }
    } else if (arg == "--trace") {
      flag("--trace");
      args.trace = true;
    } else if (arg == "--tiny") {
      flag("--tiny");
      args.tiny = true;
    } else if (arg == "--setup-only") {
      flag("--setup-only");
      args.setup_only = true;
    } else if (arg == "--calibrate") {
      flag("--calibrate");
      args.calibrate = true;
    } else {
      UsageError(std::string("unknown flag \"") + argv[i] + "\"");
    }
  }
  if (args.workload.empty() || !args.have_seed) {
    UsageError("--workload and --seed are required");
  }
  if (args.setup_only && (args.trace || args.calibrate)) {
    UsageError("--setup-only excludes --trace and --calibrate");
  }
  const bool crossed = args.workload == "fleet_crossed";
  if (!crossed && (args.calibrate || !args.placement.empty() || args.threads != 1)) {
    UsageError("--calibrate, --placement and --threads apply to fleet_crossed only");
  }
  return args;
}

// --- Spans ----------------------------------------------------------------
// The benchmark's own trace: one span per public call it makes, nested by
// the call structure, all sharing the run id of this process's run. Kept in
// memory and printed with the result.

class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_ms = 0;
    double end_ms = 0;
  };

  int Begin(std::string name) {
    spans_.push_back(Span{std::move(name), open_.empty() ? -1 : open_.back(), NowMs(), 0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int id) {
    spans_[static_cast<size_t>(id)].end_ms = NowMs();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Wall ms of every span named `name`, minus the part its child spans
  // cover (children of one span never overlap: the harness is sequential).
  std::vector<double> SelfMs(const std::string& name) const {
    std::vector<double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name != name) {
        continue;
      }
      double self = spans_[i].end_ms - spans_[i].start_ms;
      for (const Span& child : spans_) {
        if (child.parent == static_cast<int>(i)) {
          self -= child.end_ms - child.start_ms;
        }
      }
      out.push_back(self);
    }
    return out;
  }

  double TotalSelfMs(const std::string& name) const {
    double total = 0;
    for (double ms : SelfMs(name)) {
      total += ms;
    }
    return total;
  }

 private:
  double NowMs() const {
    // nymlint:allow(determinism-wallclock): host wall time is the measurement; it never feeds virtual time
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - origin_)
        .count();
  }

  // nymlint:allow(determinism-wallclock): host wall time is the measurement; it never feeds virtual time
  std::chrono::steady_clock::time_point origin_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class Scoped {
 public:
  Scoped(SpanLog& log, std::string name) : log_(log), id_(log.Begin(std::move(name))) {}
  ~Scoped() { log_.End(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// --- Result ---------------------------------------------------------------

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double peak_rss_mb = 0;
  // Virtual-time outputs: checked against expected.json, identical traced
  // and untraced.
  std::map<std::string, std::string> outputs;
  // Per-layer values (named as in BENCHMARK.json's per_layer list).
  std::map<std::string, double> layers;
  // Per-operation host latencies (ms), nym_persist only.
  std::map<std::string, std::vector<double>> latencies;
};

void Output(RunResult& r, const std::string& key, uint64_t value) {
  r.outputs[key] = JsonNumber(value);
}
void Output(RunResult& r, const std::string& key, double value) {
  r.outputs[key] = JsonNumber(value);
}

double Ratio(double part, double whole) { return whole > 0 ? part / whole : 0; }

// Layer counters the program's own observability gives (traced runs only).
void ReadMetrics(const MetricsRegistry& metrics, RunResult& r) {
  auto counter = [&](const char* name) {
    auto it = metrics.counters().find(name);
    return it == metrics.counters().end() ? 0.0 : static_cast<double>(it->second.value());
  };
  auto hist_sum = [&](const char* name) {
    auto it = metrics.histograms().find(name);
    return it == metrics.histograms().end() ? 0.0 : it->second.sum();
  };
  r.layers["hv.vm_boots"] = counter("hv.vm_boots");
  r.layers["hv.ksm_passes"] = counter("hv.ksm.passes");
  r.layers["hv.ksm_pages_scanned"] = counter("hv.ksm.pages_scanned");
  const double recomputes = counter("net.fair_share_recomputes");
  r.layers["net.fair_share_recomputes"] = recomputes;
  r.layers["net.fair_share_skip_ratio"] =
      Ratio(counter("net.fair_share_skipped"), recomputes + counter("net.fair_share_skipped"));
  r.layers["net.flows_started"] = counter("net.flows_started");
  r.layers["anon.tor_circuits_built"] = counter("anon.tor.circuits_built");
  r.layers["anon.tor_cells"] = counter("anon.tor.circuit_cells");
  r.layers["util.event_wall_ms"] = hist_sum("core.event_loop.event_wall_ns") / 1e6;
  const double reuses = counter("core.event_loop.callback_node_reuses");
  r.layers["util.node_reuse_ratio"] =
      Ratio(reuses, reuses + counter("core.event_loop.callback_node_allocs"));
}

// Sum of the wall cost the program records on its own ksm_scan spans.
double KsmScanMs(const TraceRecorder& trace) {
  double us = 0;
  for (const TraceRecorder::Event& event : trace.events()) {
    if (event.phase == 'X' && event.name == "ksm_scan" && event.wall_us > 0) {
      us += event.wall_us;
    }
  }
  return us / 1000.0;
}

// Trace export cost: Chrome JSON and NBT encodes of the finished trace.
void ExportTrace(const Observability& obs, SpanLog& spans, RunResult& r) {
  size_t json_bytes = 0;
  {
    Scoped span(spans, "obs.chrome_json");
    json_bytes = obs.trace.ToChromeJson().size();
  }
  size_t nbt_bytes = 0;
  {
    Scoped span(spans, "store.nbt_encode");
    nbt_bytes = EncodeNbt(&obs.trace, &obs.metrics).size();
  }
  NYMIX_CHECK(json_bytes > 0 && nbt_bytes > 0);
  r.layers["obs.chrome_json_ms"] = spans.TotalSelfMs("obs.chrome_json");
  r.layers["store.nbt_encode_ms"] = spans.TotalSelfMs("store.nbt_encode");
  r.layers["obs.trace_events"] = static_cast<double>(obs.trace.event_count());
  r.layers["hv.ksm_scan_ms"] = KsmScanMs(obs.trace);
}

// Traced runs only, after everything timed: builds `count` images the way
// the workload's constructor does (for workloads whose constructor builds
// its own, so their cost can be split out of it), then a cold whole-image
// Merkle verification on a fresh copy that no workload ever sees.
void ProbeImages(int count, SpanLog& spans) {
  Scoped probe(spans, "probe");
  for (int i = 0; i < count; ++i) {
    Scoped span(spans, "unionfs.image_build");
    NYMIX_CHECK(BaseImage::CreateDistribution(kFleetImageName, kFleetImageSeed,
                                              kFleetImageSizeBytes) != nullptr);
  }
  auto copy =
      BaseImage::CreateDistribution(kFleetImageName, kFleetImageSeed, kFleetImageSizeBytes);
  Scoped span(spans, "crypto.image_verify");
  NYMIX_CHECK(copy->VerifyAllBlocks());
}

void ExecutorLayers(const ShardedSimulation& sharded, RunResult& r) {
  r.layers["parallel.epochs"] = static_cast<double>(sharded.epochs());
  r.layers["parallel.cross_deliveries"] = static_cast<double>(sharded.cross_deliveries());
  const auto& histograms = sharded.executor_metrics().histograms();
  auto wait = histograms.find("parallel.barrier_wait_ms");
  r.layers["parallel.barrier_wait_ms"] = wait == histograms.end() ? 0 : wait->second.sum();
  r.layers["parallel.shard_skew_events"] = sharded.shard_skew_events_mean();
}

// --- Workloads --------------------------------------------------------------

FleetOptions FleetShape(const Args& args) {
  FleetOptions options;
  options.nym_count = args.tiny ? 8 : 256;
  if (args.workload == "fleet_crossed") {
    options.topology = FleetTopology::kCrossed;
  }
  return options;
}

// A serial crossed run whose per-host activity feeds BalancedPlacement (as
// bench/scale_fleet's calibration pass). The placement is part of the
// workload definition, computed once per seed before any timed run.
void Calibrate(const Args& args) {
  FleetOptions options = FleetShape(args);
  ShardedSimulation sharded(args.seed, ShardPlan{kFleetShards, 1});
  ShardedFleet fleet(sharded, options, args.seed);
  fleet.Run();
  ShardPlacement placement = BalancedPlacement(fleet.HostWeights(), kFleetShards, args.seed);
  std::printf("{\"placement\": \"%s\"}\n", placement.Label().c_str());
}

RunResult RunFleet(const Args& args, SpanLog& spans) {
  FleetOptions options = FleetShape(args);
  const bool crossed = args.workload == "fleet_crossed";
  const int hosts = (options.nym_count + options.nyms_per_host - 1) / options.nyms_per_host;
  if (crossed) {
    if (static_cast<int>(args.placement.shard_of_host.size()) != hosts) {
      UsageError("--placement needs one shard per host (" + std::to_string(hosts) + ")");
    }
    options.placement = args.placement;
  }
  RunResult r;
  std::unique_ptr<ShardedSimulation> sharded;
  std::unique_ptr<ShardedFleet> fleet;
  {
    Scoped setup(spans, "setup");
    for (int s = 0; s < kFleetShards; ++s) {
      Scoped span(spans, "unionfs.image_build");
      options.images.push_back(
          BaseImage::CreateDistribution(kFleetImageName, kFleetImageSeed, kFleetImageSizeBytes));
    }
    Scoped span(spans, "core.fleet_build");
    sharded = std::make_unique<ShardedSimulation>(args.seed,
                                                  ShardPlan{kFleetShards, crossed ? args.threads : 1});
    if (args.trace) {
      sharded->EnableObservability(/*record_wall_time=*/true);
    }
    fleet = std::make_unique<ShardedFleet>(*sharded, options, args.seed);
  }
  if (args.setup_only) {
    return r;
  }
  FleetKsmStats fleet_ksm;
  {
    Scoped run(spans, "run");
    {
      Scoped span(spans, "core.fleet_run");
      fleet->Run();
    }
    Scoped span(spans, "hv.ksm_reconcile");
    fleet_ksm = fleet->ReconcileKsm();
  }
  r.peak_rss_mb = PeakRssMb();

  const uint64_t creates = static_cast<uint64_t>(options.nym_count) *
                           static_cast<uint64_t>(options.generations);
  r.attempted = fleet->visits() + fleet->visit_failures() + creates;
  r.failed = fleet->visit_failures() + fleet->create_failures() + fleet->slots_abandoned();
  Output(r, "events", fleet->events_executed());
  Output(r, "visits", fleet->visits());
  Output(r, "churns", fleet->churns());
  Output(r, "ksm_pages_sharing", fleet->ksm_pages_sharing());
  Output(r, "fleet_pages_sharing", fleet_ksm.pages_sharing);
  if (crossed) {
    Output(r, "cloud_fetches", fleet->cloud_fetches());
    Output(r, "epochs", sharded->epochs());
    Output(r, "cross_deliveries", sharded->cross_deliveries());
  }

  r.layers["unionfs.images_built"] = kFleetShards;
  r.layers["core.fleet_build_ms"] = spans.TotalSelfMs("core.fleet_build");
  r.layers["hv.ksm_reconcile_ms"] = spans.TotalSelfMs("hv.ksm_reconcile");
  r.layers["util.events"] = static_cast<double>(fleet->events_executed());
  const double merged = static_cast<double>(fleet->ksm_memories_merged());
  r.layers["hv.ksm_skip_ratio"] =
      Ratio(static_cast<double>(fleet->ksm_memories_skipped()),
            merged + static_cast<double>(fleet->ksm_memories_skipped()));
  ExecutorLayers(*sharded, r);
  if (args.trace) {
    {
      Scoped span(spans, "obs.merge");
      sharded->MergeObservability();
    }
    r.layers["obs.merge_ms"] = spans.TotalSelfMs("obs.merge");
    ReadMetrics(sharded->merged().metrics, r);
    ExportTrace(sharded->merged(), spans, r);
    ProbeImages(0, spans);
  }
  return r;
}

RunResult RunAdversary(const Args& args, SpanLog& spans) {
  AdversaryOptions options;
  options.nym_count = args.tiny ? 8 : 128;
  options.nyms_per_host = 2;
  options.workload = WorkloadMix::kMixed;
  RunResult r;
  std::unique_ptr<ShardedSimulation> sharded;
  std::unique_ptr<AdversaryExperiment> experiment;
  {
    Scoped setup(spans, "setup");
    // The constructor builds one image per shard itself; traced runs split
    // that cost out with ProbeImages.
    Scoped span(spans, "core.fleet_build");
    sharded = std::make_unique<ShardedSimulation>(args.seed, ShardPlan{kAdversaryShards, 1});
    if (args.trace) {
      sharded->EnableObservability(/*record_wall_time=*/true);
    }
    experiment = std::make_unique<AdversaryExperiment>(*sharded, options, args.seed);
  }
  if (args.setup_only) {
    return r;
  }
  AdversaryReport report;
  {
    Scoped run(spans, "run");
    {
      Scoped span(spans, "core.fleet_run");
      experiment->Run();
    }
    Scoped span(spans, "adversary.analyze");
    report = experiment->Analyze();
  }
  r.peak_rss_mb = PeakRssMb();

  uint64_t events = 0;
  for (int s = 0; s < sharded->shard_count(); ++s) {
    events += sharded->shard(s).loop().events_executed();
  }
  // Four sites per pass; a slot that gave up leaves its visits undone.
  const uint64_t planned = static_cast<uint64_t>(options.nym_count) * options.generations *
                           options.passes_per_generation * 4;
  r.attempted = planned;
  r.failed = planned > experiment->visits() ? planned - experiment->visits() : 0;
  Output(r, "events", events);
  Output(r, "visits", experiment->visits());
  Output(r, "churns", experiment->churns());
  Output(r, "advantage", report.linkage.advantage);
  Output(r, "mean_anonymity_set", report.anonymity.mean_set);

  r.layers["unionfs.images_built"] = kAdversaryShards;
  r.layers["util.events"] = static_cast<double>(events);
  r.layers["adversary.analyze_ms"] = spans.TotalSelfMs("adversary.analyze");
  r.layers["adversary.tap_packets"] = static_cast<double>(report.tap_packets);
  r.layers["adversary.flows"] = static_cast<double>(report.entry_flows + report.exit_flows);
  ExecutorLayers(*sharded, r);
  if (args.trace) {
    {
      Scoped span(spans, "obs.merge");
      sharded->MergeObservability();
    }
    r.layers["obs.merge_ms"] = spans.TotalSelfMs("obs.merge");
    ReadMetrics(sharded->merged().metrics, r);
    ExportTrace(sharded->merged(), spans, r);
    ProbeImages(kAdversaryShards, spans);
  }
  return r;
}

RunResult RunPersist(const Args& args, SpanLog& spans) {
  const int cycles = args.tiny ? 2 : 40;
  RunResult r;
  Observability obs;
  std::unique_ptr<Testbed> bed;
  {
    Scoped setup(spans, "setup");
    Scoped span(spans, "core.fleet_build");
    bed = std::make_unique<Testbed>(args.seed);
    if (args.trace) {
      obs.EnableAll();
      bed->sim().loop().set_observability(&obs);
    }
    NYMIX_CHECK(bed->cloud().CreateAccount("bench-user", "cloud-pw").ok());
  }
  if (args.setup_only) {
    return r;
  }
  uint64_t saves = 0;
  uint64_t loads = 0;
  uint64_t sealed = 0;
  uint64_t logical = 0;
  {
    Scoped run(spans, "run");
    for (const char* site_name : kPersistSites) {
      Website& site = bed->sites().ByName(site_name);
      const std::string nym_name = std::string("nym-") + site_name;
      Nym* nym = nullptr;
      {
        Scoped span(spans, "core.create_nym");
        nym = bed->CreateNymBlocking(nym_name);
      }
      ++r.attempted;
      if (site.profile().supports_login) {
        bool logged = false;
        nym->browser()->Login(site, std::string("user-") + site_name, "pw",
                              [&](Result<SimTime>) { logged = true; });
        bed->sim().RunUntil([&] { return logged; });
      }
      for (int cycle = 1; cycle <= cycles; ++cycle) {
        Scoped cycle_span(spans, "cycle");
        r.attempted += 3;
        {
          Scoped span(spans, "core.visit");
          r.failed += bed->VisitBlocking(nym, site).ok() ? 0 : 1;
        }
        Result<SaveReceipt> receipt = InternalError("pending");
        {
          Scoped span(spans, "core.save_nym");
          receipt = bed->SaveBlocking(nym, "bench-user", "cloud-pw", "nym-pw");
        }
        if (receipt.ok()) {
          ++saves;
          sealed += receipt->sealed_bytes;
          logical += receipt->logical_size;
        } else {
          ++r.failed;
        }
        {
          Scoped span(spans, "core.terminate_nym");
          r.failed += bed->manager().TerminateNym(nym).ok() ? 0 : 1;
        }
        if (cycle == cycles) {
          break;
        }
        ++r.attempted;
        Result<Nym*> restored = InternalError("pending");
        {
          Scoped span(spans, "core.load_nym");
          restored = bed->LoadBlocking(nym_name, "bench-user", "cloud-pw", "nym-pw");
        }
        if (!restored.ok()) {
          ++r.failed;
          break;  // nothing left to drive for this nym
        }
        ++loads;
        nym = *restored;
      }
    }
  }
  r.peak_rss_mb = PeakRssMb();

  const uint64_t events = bed->sim().loop().events_executed();
  Output(r, "events", events);
  Output(r, "saves", saves);
  Output(r, "loads", loads);
  Output(r, "sealed_bytes", sealed);
  Output(r, "logical_bytes", logical);
  r.latencies["load_ms"] = spans.SelfMs("core.load_nym");
  r.latencies["save_ms"] = spans.SelfMs("core.save_nym");

  r.layers["unionfs.images_built"] = 1;
  r.layers["util.events"] = static_cast<double>(events);
  r.layers["core.create_nym_ms"] = Median(spans.SelfMs("core.create_nym"));
  r.layers["core.terminate_nym_ms"] = Median(spans.SelfMs("core.terminate_nym"));
  r.layers["core.visit_ms"] = Median(spans.SelfMs("core.visit"));
  r.layers["storage.sealed_bytes"] = static_cast<double>(sealed);
  r.layers["storage.logical_bytes"] = static_cast<double>(logical);
  if (args.trace) {
    ReadMetrics(obs.metrics, r);
    ExportTrace(obs, spans, r);
    ProbeImages(1, spans);
  }
  return r;
}

// Traced runs: image build time comes from the fleet's own builds or from
// the probe; a constructor that builds its images internally has the
// probe's estimate of that cost taken out of core.fleet_build_ms.
void ImageLayers(const Args& args, const SpanLog& spans, RunResult& r) {
  const double image_ms = spans.TotalSelfMs("unionfs.image_build");
  r.layers["unionfs.image_build_ms"] = image_ms;
  r.layers["crypto.image_verify_ms"] = spans.TotalSelfMs("crypto.image_verify");
  if (args.workload == "adversary_mixed" || args.workload == "nym_persist") {
    r.layers["core.fleet_build_ms"] =
        std::max(0.0, spans.TotalSelfMs("core.fleet_build") - image_ms);
  }
}

std::string JsonList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonNumber(values[i]);
  }
  return out + "]";
}

void PrintResult(const Args& args, const SpanLog& spans, const RunResult& r) {
  auto duration_s = [&](const char* name) {
    for (const SpanLog::Span& span : spans.spans()) {
      if (span.name == name) {
        return (span.end_ms - span.start_ms) / 1000.0;
      }
    }
    return 0.0;
  };
  std::string out = "{\"workload\": \"" + JsonEscape(args.workload) + "\"";
  out += ", \"seed\": " + JsonNumber(args.seed);
  out += ", \"traced\": " + std::string(args.trace ? "true" : "false");
  out += ", \"run_id\": \"" + JsonEscape(args.workload + "-s" + std::to_string(args.seed) + "-p" +
                                         std::to_string(getpid())) + "\"";
  out += ", \"setup_s\": " + JsonNumber(duration_s("setup"));
  out += ", \"run_s\": " + JsonNumber(duration_s("run"));
  out += ", \"peak_rss_mb\": " + JsonNumber(r.peak_rss_mb);
  out += ", \"attempted\": " + JsonNumber(r.attempted);
  out += ", \"failed\": " + JsonNumber(r.failed);
  auto object = [&](const char* key, const auto& map, auto render) {
    out += std::string(", \"") + key + "\": {";
    bool first = true;
    for (const auto& [name, value] : map) {
      out += (first ? "\"" : ", \"") + JsonEscape(name) + "\": " + render(value);
      first = false;
    }
    out += "}";
  };
  object("outputs", r.outputs, [](const std::string& v) { return v; });
  object("layers", r.layers, [](double v) { return JsonNumber(v); });
  object("latencies", r.latencies, [](const std::vector<double>& v) { return JsonList(v); });
  out += ", \"spans\": [";
  for (size_t i = 0; i < spans.spans().size(); ++i) {
    const SpanLog::Span& span = spans.spans()[i];
    out += (i > 0 ? ", " : "") + std::string("{\"name\": \"") + JsonEscape(span.name) +
           "\", \"parent\": " + JsonNumber(static_cast<int64_t>(span.parent)) +
           ", \"start_ms\": " + JsonNumber(span.start_ms) +
           ", \"end_ms\": " + JsonNumber(span.end_ms) + "}";
  }
  out += "], \"stamp\": {\"hardware_threads\": " +
         JsonNumber(static_cast<int64_t>(ThreadPool::HardwareThreads())) +
         ", \"build_type\": \"" + JsonEscape(NYMBENCH_BUILD_TYPE) + "\", \"compiler\": \"" +
         JsonEscape(NYMBENCH_COMPILER) + "\"}}";
  NYMIX_CHECK_MSG(JsonValidate(out), "nymbench: emitted invalid JSON");
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  if (args.calibrate) {
    Calibrate(args);
    return 0;
  }
  SpanLog spans;
  RunResult r;
  if (args.workload == "adversary_mixed") {
    r = RunAdversary(args, spans);
  } else if (args.workload == "nym_persist") {
    r = RunPersist(args, spans);
  } else {
    r = RunFleet(args, spans);
  }
  if (args.trace) {
    ImageLayers(args, spans, r);
  }
  PrintResult(args, spans, r);
  return 0;
}
