// KSM ablation (§4.2: "Nymix enables KSM... Nymix can save a bit of RAM
// through the use of KSM, as we show in our evaluations"): host memory
// with and without kernel samepage merging as nyms accumulate, and the
// marginal nym capacity it buys on the 16 GB evaluation machine.
#include <cstdio>

#include "bench/bench_stats.h"
#include "src/core/testbed.h"

using namespace nymix;

int main(int argc, char** argv) {
  BenchStats stats(FlagSet("ablation_ksm"), argc, argv);
  std::printf("# Host used memory (MB) with and without KSM\n");
  std::printf("%-5s %12s %12s %12s\n", "nyms", "ksm off", "ksm on", "saved");

  Testbed bed(13);
  stats.Attach(bed.sim());
  for (int n = 1; n <= 8; ++n) {
    Nym* nym = bed.CreateNymBlocking("k-" + std::to_string(n));
    NYMIX_CHECK(
        bed.VisitBlocking(nym, *bed.sites().all()[static_cast<size_t>(n - 1)]).ok());
    uint64_t allocated = bed.host().AllocatedMemoryBytes();  // what "off" would use
    bed.host().ksm().ScanNow();
    uint64_t used = bed.host().UsedMemoryBytes();
    std::printf("%-5d %12.0f %12.0f %12.0f\n", n, static_cast<double>(allocated) / kMiB,
                static_cast<double>(used) / kMiB,
                static_cast<double>(allocated - used) / kMiB);
  }

  uint64_t saved = bed.host().ksm().stats().bytes_saved();
  uint64_t per_nymbox = 656 * kMiB;
  std::printf("\n# at 8 nyms KSM frees %s — %.2f extra nymboxes' worth of RAM\n",
              FormatSize(saved).c_str(),
              static_cast<double>(saved) / static_cast<double>(per_nymbox));
  std::printf("# KSM matters because every VM boots from the same base image (§3.4)\n");

  stats.Set("nyms", 8);
  stats.Set("ksm_bytes_saved", static_cast<double>(saved));
  stats.Set("extra_nymboxes",
            static_cast<double>(saved) / static_cast<double>(per_nymbox));
  return stats.Finish();
}
