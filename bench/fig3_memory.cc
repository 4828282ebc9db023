// Figure 3: "RAM usage and shared pages with varying number of pseudonyms
// before and after the new pseudonym becomes active."
//
// Protocol (§5.2): launch pseudonyms in succession; after each launch note
// used memory and KSM shared pages, interact with a website (Gmail,
// Twitter, Youtube, Tor Blog, BBC, Facebook, Slashdot, ESPN in order),
// then note both again. The dashed line is the expected per-pseudonym
// allocation (AnonVM 384 MB RAM + 128 MB disk, CommVM 128 MB + 16 MB).
#include <cstdio>

#include "bench/bench_stats.h"
#include "src/core/testbed.h"

using namespace nymix;

int main(int argc, char** argv) {
  BenchStats stats(FlagSet("fig3_memory"), argc, argv);
  Testbed bed(/*seed=*/3);
  stats.Attach(bed.sim());
  bed.host().ksm().Start(Seconds(2));

  const char* kVisitOrder[] = {"Gmail", "Twitter",  "Youtube",  "TorBlog",
                               "BBC",   "Facebook", "Slashdot", "ESPN"};

  std::printf("# Figure 3: RAM usage and KSM shared pages vs number of nyms\n");
  std::printf("# host: %u cores, %s RAM, baseline %s\n", kHostCores,
              FormatSize(kHostRamBytes).c_str(), FormatSize(kHostBaselineBytes).c_str());
  std::printf("%-5s %-10s %12s %12s %12s %14s %14s\n", "nyms", "site", "expected(MB)",
              "used_before", "used_after", "shared_before", "shared_after");

  for (int n = 1; n <= 8; ++n) {
    // Launch pseudonym n (incognito keeps the bench about memory, not Tor
    // bootstrap; the memory shape is anonymizer-independent).
    NymManager::CreateOptions options;
    options.anonymizer = AnonymizerKind::kTor;
    Nym* nym = bed.CreateNymBlocking("nym-" + std::to_string(n), options);
    bed.host().ksm().ScanNow();
    uint64_t used_before = bed.host().UsedMemoryBytes();
    uint64_t shared_before = bed.host().ksm().stats().pages_sharing;

    // Interact with the n-th website (sign in where applicable).
    Website& site = bed.sites().ByName(kVisitOrder[n - 1]);
    if (site.profile().supports_login) {
      bool logged = false;
      nym->browser()->Login(site, "user-" + std::to_string(n), "pw",
                            [&](Result<SimTime>) { logged = true; });
      bed.sim().RunUntil([&] { return logged; });
    }
    NYMIX_CHECK(bed.VisitBlocking(nym, site).ok());
    bed.host().ksm().ScanNow();
    uint64_t used_after = bed.host().UsedMemoryBytes();
    uint64_t shared_after = bed.host().ksm().stats().pages_sharing;

    uint64_t expected = bed.host().ReservedMemoryBytes();
    std::printf("%-5d %-10s %12.0f %12.0f %12.0f %14llu %14llu\n", n, kVisitOrder[n - 1],
                static_cast<double>(expected) / kMiB, static_cast<double>(used_before) / kMiB,
                static_cast<double>(used_after) / kMiB,
                static_cast<unsigned long long>(shared_before),
                static_cast<unsigned long long>(shared_after));
  }

  KsmStats final_stats = bed.host().ksm().stats();
  double saving = 100.0 * static_cast<double>(final_stats.bytes_saved()) /
                  static_cast<double>(bed.host().AllocatedMemoryBytes());
  std::printf("\n# at 8 nyms: KSM saves %s (%.1f%% of allocated memory; paper: \"over 5%%\")\n",
              FormatSize(final_stats.bytes_saved()).c_str(), saving);
  std::printf("# per-nymbox expected cost: %s (paper headline: ~600 MB)\n",
              FormatSize(656 * kMiB).c_str());

  stats.SetLabel("figure", "3");
  stats.Set("nyms", 8);
  stats.Set("ksm_bytes_saved", static_cast<double>(final_stats.bytes_saved()));
  stats.Set("ksm_saving_pct", saving);
  stats.Set("used_bytes", static_cast<double>(bed.host().UsedMemoryBytes()));
  stats.Set("allocated_bytes", static_cast<double>(bed.host().AllocatedMemoryBytes()));
  return stats.Finish();
}
