// Ablation (ours, motivated by §3.3/§4.1's pluggable-anonymizer design):
// the security/performance trade-off across the supported communication
// tools — bootstrap cost, 5 MB fetch time, wire overhead, and whether the
// destination learns the user's network identity.
#include <cstdio>

#include "bench/bench_stats.h"
#include "src/core/testbed.h"

using namespace nymix;

int main(int argc, char** argv) {
  BenchStats stats(FlagSet("ablation_anonymizers"), argc, argv);
  std::printf("# Anonymizer ablation: bootstrap / 5 MB fetch / overhead / identity\n");
  std::printf("%-12s %12s %12s %10s %18s\n", "tool", "bootstrap(s)", "fetch 5MB(s)",
              "overhead", "identity exposed?");

  struct Row {
    const char* name;
    AnonymizerKind kind;
  };
  const Row rows[] = {
      {"incognito", AnonymizerKind::kIncognito},
      {"tor", AnonymizerKind::kTor},
      {"dissent", AnonymizerKind::kDissent},
      {"sweet", AnonymizerKind::kSweet},
      {"tor+dissent", AnonymizerKind::kChained},
  };

  for (const Row& row : rows) {
    Testbed bed(/*seed=*/Fnv1a64(row.name));
    stats.Attach(bed.sim());
    NymManager::CreateOptions options;
    options.anonymizer = row.kind;
    NymStartupReport report;
    Nym* nym = bed.CreateNymBlocking(std::string("ablate-") + row.name, options, &report);

    SimTime start = bed.sim().now();
    bool done = false;
    nym->anonymizer()->Fetch(bed.sites().ByName("BBC").profile().domain, 0, 5 * 1000 * 1000,
                             [&](Result<FetchReceipt> receipt) {
                               NYMIX_CHECK_MSG(receipt.ok(),
                                               receipt.status().ToString().c_str());
                               done = true;
                             });
    bed.sim().RunUntil([&] { return done; });
    double fetch_seconds = ToSeconds(bed.sim().now() - start);

    std::printf("%-12s %12.1f %12.1f %9.2fx %18s\n", row.name,
                ToSeconds(report.start_anonymizer), fetch_seconds,
                nym->anonymizer()->OverheadFactor(),
                nym->anonymizer()->ProtectsNetworkIdentity() ? "no" : "YES");
    std::string prefix = std::string(row.name) + ".";
    stats.Set(prefix + "bootstrap_s", ToSeconds(report.start_anonymizer));
    stats.Set(prefix + "fetch_5mb_s", fetch_seconds);
    stats.Set(prefix + "overhead_factor", nym->anonymizer()->OverheadFactor());
  }

  std::printf("\n# incognito: fast, zero network protection (IPTables masquerade, §4.1)\n");
  std::printf("# tor: the default; dissent: DC-net costs, strongest traffic analysis story\n");
  std::printf("# tor+dissent: §3.3's \"best of both worlds\" serial composition\n");
  return stats.Finish();
}
