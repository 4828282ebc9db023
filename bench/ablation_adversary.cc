// Adversary-advantage ablation: the leak-quantification sweep behind the
// paper's tracking-protection claims. Every row runs one AdversaryExperiment
// (src/adversary) — a churning Nymix fleet instrumented with entry/exit
// taps and colluding trackers — and reports what the attack suite extracts:
//
//   * clean sweep     — fleet size x churn generations x workload mix, all
//                       with intact isolation: advantage should sit at the
//                       coincidence floor, the anonymity set near the fleet
//                       size.
//   * planted rows    — each isolation failure (shared cookie jar, reused
//                       circuit, disabled scrub) planted one at a time on
//                       the base configuration: advantage should jump to ~1
//                       for the matching probe.
//   * determinism     — the base configuration re-run at every --threads
//                       value; the merged trace, merged metrics, and the
//                       adversary.* report must hash identically (exit 1
//                       otherwise — thread count must not move a byte).
//
// Usage:
//   ablation_adversary [--n=8,16] [--generations=2,3] [--threads=1,2,4]
//                      [--shards=4] [--seed=7] [--out=BENCH_adversary.json]
//                      [--stats-out=...] [--trace-out=...]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_stats.h"
#include "src/adversary/experiment.h"
#include "src/crypto/sha256.h"

using namespace nymix;

namespace {

constexpr char kUsage[] =
    "usage: ablation_adversary [--n=8,16] [--generations=2,3] [--threads=1,2,4]\n"
    "                          [--shards=4] [--seed=7] [--out=BENCH_adversary.json]\n"
    "                          [--stats-out=...] [--trace-out=...]\n";

struct RowResult {
  int n = 0;
  int generations = 0;
  int threads = 1;
  std::string workload;
  std::string plant;
  double wall_seconds = 0;
  AdversaryReport report;
  std::string digest;  // trace + metrics + report, hex SHA-256
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

// One experiment run. The digest covers the merged trace, the merged
// metrics dump, and the exported adversary.* family — everything a thread
// count could conceivably perturb.
RowResult RunRow(BenchStats& stats, const AdversaryOptions& options, int shards, int threads,
                 uint64_t seed) {
  // nymlint:allow(determinism-wallclock): wall-clock cost is the measurement; it never feeds virtual time
  auto wall_start = std::chrono::steady_clock::now();
  ShardedSimulation sharded(seed, ShardPlan{shards, threads});
  sharded.EnableObservability(/*record_wall_time=*/false);
  AdversaryExperiment experiment(sharded, options, seed);
  experiment.Run();
  // nymlint:allow(determinism-wallclock): wall-clock cost is the measurement; it never feeds virtual time
  auto wall_end = std::chrono::steady_clock::now();
  sharded.MergeObservability();

  RowResult row;
  row.n = options.nym_count;
  row.generations = options.generations;
  row.threads = threads;
  row.workload = std::string(WorkloadMixName(options.workload));
  row.plant = std::string(LeakPlantName(options.plant));
  row.wall_seconds = std::chrono::duration<double>(wall_end - wall_start).count();
  row.report = experiment.Analyze();

  MetricsRegistry adversary_metrics;
  adversary_metrics.set_enabled(true);
  AdversaryExperiment::ExportMetrics(row.report, adversary_metrics);

  std::ostringstream digest_input;
  digest_input << sharded.merged().trace.ToChromeJson();
  sharded.merged().metrics.WriteJson(digest_input);
  adversary_metrics.WriteJson(digest_input);
  row.digest = HexDigest(Sha256::Hash(digest_input.str()));

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
    stats.obs().metrics.MergeFrom(adversary_metrics);
  }
  return row;
}

void PrintRow(const RowResult& row) {
  std::printf("%-4d %-4d %-10s %-18s %9.3f %10.3f %8.1f %8.1f %8.3f\n", row.n, row.generations,
              row.workload.c_str(), row.plant.c_str(), row.report.linkage.advantage,
              row.report.linkage.linkage_probability, row.report.anonymity.min_set,
              row.report.anonymity.mean_set, row.report.correlation.accuracy);
}

void EmitRow(JsonWriter& w, const RowResult& row) {
  w.BeginObject(JsonWriter::kCompact);
  w.Key("n");
  w.Number(row.n);
  w.Key("generations");
  w.Number(row.generations);
  w.Key("threads");
  w.Number(row.threads);
  w.Key("workload");
  w.String(row.workload);
  w.Key("plant");
  w.String(row.plant);
  w.Key("wall_seconds");
  w.Number(row.wall_seconds, 4);
  w.Key("advantage");
  w.Number(row.report.linkage.advantage);
  w.Key("advantage_cookie");
  w.Number(row.report.linkage.cookie.advantage());
  w.Key("advantage_exit");
  w.Number(row.report.linkage.exit_fingerprint.advantage());
  w.Key("advantage_stain");
  w.Number(row.report.linkage.stain.advantage());
  w.Key("linkage_probability");
  w.Number(row.report.linkage.linkage_probability);
  w.Key("anonymity_min");
  w.Number(row.report.anonymity.min_set);
  w.Key("anonymity_mean");
  w.Number(row.report.anonymity.mean_set);
  w.Key("flowcorr_accuracy");
  w.Number(row.report.correlation.accuracy);
  w.Key("nym_instances");
  w.Number(row.report.nym_instances);
  w.Key("entry_flows");
  w.Number(row.report.entry_flows);
  w.Key("exit_flows");
  w.Number(row.report.exit_flows);
  w.Key("digest");
  w.String(row.digest);
  w.EndObject();
}

std::string StatsKey(const RowResult& row) {
  return "n" + std::to_string(row.n) + ".g" + std::to_string(row.generations) + "." +
         row.workload + "." + row.plant;
}

}  // namespace

int main(int argc, char** argv) {
  BenchStats stats("ablation_adversary", argc, argv);
  std::vector<int> ns = {8, 16};
  std::vector<int> generations_list = {2, 3};
  std::vector<int> threads_list = {1, 2, 4};
  int shards = 4;
  uint64_t seed = 7;
  std::string out_path = "BENCH_adversary.json";
  // Malformed, empty or out-of-range values and unknown flags are usage
  // errors (exit 2): a typo must not abort mid-sweep or run a default sweep.
  auto usage_error = [](const std::string& message) {
    std::fprintf(stderr, "ablation_adversary: %s\n%s", message.c_str(), kUsage);
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
    } else if (flag == "--n" || flag == "--generations" || flag == "--threads" ||
               flag == "--shards") {
      std::optional<std::vector<int>> list = ParseIntList(value, 1);
      if (!list.has_value() || (flag == "--shards" && list->size() != 1)) {
        return usage_error("malformed " + flag + " \"" + value + "\" (want positive integers" +
                           (flag == "--shards" ? ")" : ", comma-separated)"));
      }
      if (flag == "--n") {
        ns = std::move(*list);
      } else if (flag == "--generations") {
        generations_list = std::move(*list);
      } else if (flag == "--threads") {
        threads_list = std::move(*list);
      } else {
        shards = list->front();
      }
    } else if (flag == "--seed") {
      std::optional<uint64_t> parsed = ParseUint64(value);
      if (!parsed.has_value()) {
        return usage_error("malformed --seed \"" + value + "\"");
      }
      seed = *parsed;
    } else if (flag == "--out") {
      out_path = value;
    } else if (!BenchStats::OwnsFlag(argv[i])) {
      return usage_error("unknown argument \"" + arg + "\"");
    }
  }

  const WorkloadMix kMixes[] = {WorkloadMix::kBrowse, WorkloadMix::kStreaming,
                                WorkloadMix::kUpload, WorkloadMix::kMixed};
  const LeakPlant kPlants[] = {LeakPlant::kSharedCookieJar, LeakPlant::kReusedCircuit,
                               LeakPlant::kDisabledScrub};

  std::printf("# ablation_adversary: entry/exit taps + colluding trackers over a churning fleet\n");
  std::printf("%-4s %-4s %-10s %-18s %9s %10s %8s %8s %8s\n", "n", "gen", "workload", "plant",
              "advant.", "link-prob", "anon-min", "anon-avg", "fc-acc");

  // Clean sweep: isolation intact everywhere; the advantage column is the
  // coincidence floor the oracle tests pin at <= 0.1.
  std::vector<RowResult> clean;
  for (int n : ns) {
    for (int generations : generations_list) {
      for (WorkloadMix mix : kMixes) {
        AdversaryOptions options;
        options.nym_count = n;
        options.generations = generations;
        options.workload = mix;
        RowResult row = RunRow(stats, options, shards, threads_list.front(), seed);
        PrintRow(row);
        clean.push_back(std::move(row));
      }
    }
  }

  // Planted rows: one isolation failure at a time on the base config; the
  // matching probe's advantage should be ~1 (oracle floor 0.9).
  std::vector<RowResult> planted;
  for (LeakPlant plant : kPlants) {
    AdversaryOptions options;
    options.nym_count = ns.front();
    options.generations = generations_list.front();
    options.plant = plant;
    RowResult row = RunRow(stats, options, shards, threads_list.front(), seed);
    PrintRow(row);
    planted.push_back(std::move(row));
  }

  // Thread determinism: same base experiment at each thread count; every
  // digest must match the first. This is the adversary lane's slice of the
  // executor's byte-identity contract.
  std::vector<RowResult> threaded;
  bool identity_ok = true;
  for (int threads : threads_list) {
    AdversaryOptions options;
    options.nym_count = ns.front();
    options.generations = generations_list.front();
    RowResult row = RunRow(stats, options, shards, threads, seed);
    std::printf("%-4d %-4d %-10s threads=%-2d digest=%.12s\n", row.n, row.generations,
                row.workload.c_str(), threads, row.digest.c_str());
    if (!threaded.empty() && row.digest != threaded.front().digest) {
      std::fprintf(stderr,
                   "ablation_adversary: DETERMINISM VIOLATION: threads=%d digest %s "
                   "disagrees with threads=%d digest %s\n",
                   threads, row.digest.c_str(), threaded.front().threads,
                   threaded.front().digest.c_str());
      identity_ok = false;
    }
    threaded.push_back(std::move(row));
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "ablation_adversary: cannot write %s\n", out_path.c_str());
    return 1;
  }
  JsonWriter w(out);
  w.BeginObject();
  w.Key("bench");
  w.String("ablation_adversary");
  w.Key("seed");
  w.Number(seed);
  w.Key("shards");
  w.Number(shards);
  w.Key("clean");
  w.BeginArray();
  for (const RowResult& row : clean) {
    EmitRow(w, row);
  }
  w.EndArray();
  w.Key("planted");
  w.BeginArray();
  for (const RowResult& row : planted) {
    EmitRow(w, row);
  }
  w.EndArray();
  w.Key("threaded");
  w.BeginArray();
  for (const RowResult& row : threaded) {
    EmitRow(w, row);
  }
  w.EndArray();
  w.Key("threads_identical");
  w.Bool(identity_ok);
  w.EndObject();
  out << "\n";
  NYMIX_CHECK_MSG(w.balanced(), "ablation_adversary: unbalanced JSON emitter");
  std::printf("# wrote %s\n", out_path.c_str());

  for (const RowResult& row : clean) {
    stats.Set(StatsKey(row) + ".advantage", row.report.linkage.advantage);
    stats.Set(StatsKey(row) + ".anonymity_min", row.report.anonymity.min_set);
  }
  for (const RowResult& row : planted) {
    stats.Set(StatsKey(row) + ".advantage", row.report.linkage.advantage);
  }
  stats.SetLabel("threads_identical", identity_ok ? "true" : "false");

  int rc = stats.Finish();
  return identity_ok ? rc : 1;
}
