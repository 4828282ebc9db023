// Figure 5: "Time to download the Linux kernel with many nyms downloading
// in parallel." Each nym runs its own Tor instance; the host uplink is the
// DeterLab-style 10 Mbit/s, 80 ms RTT bottleneck. Ideal = N x (tarball /
// 10 Mbit); actual pays the per-flow Tor cell overhead (~12%, §5.2).
#include <cstdio>
#include <vector>

#include "bench/bench_stats.h"
#include "src/core/testbed.h"

using namespace nymix;

int main(int argc, char** argv) {
  BenchStats stats(FlagSet("fig5_bandwidth"), argc, argv);
  std::printf("# Figure 5: kernel (linux-3.14.2, %s) download time vs parallel nyms\n",
              FormatSize(kLinuxKernelTarballBytes).c_str());
  std::printf("%-5s %12s %12s %12s\n", "nyms", "actual(s)", "ideal(s)", "overhead");

  double single_ideal =
      static_cast<double>(kLinuxKernelTarballBytes) * 8 / 10'000'000.0;

  for (int n = 1; n <= 8; ++n) {
    // Fresh deployment per point so earlier downloads don't share circuits.
    Testbed bed(/*seed=*/100 + n);
    stats.Attach(bed.sim());
    std::vector<Nym*> nyms;
    for (int i = 0; i < n; ++i) {
      nyms.push_back(bed.CreateNymBlocking("dl-" + std::to_string(i)));
    }
    // Start all downloads at the same instant.
    std::vector<double> times;
    for (Nym* nym : nyms) {
      DownloadKernel(*nym->anonymizer(), bed.mirror(), bed.sim(), [&](Result<double> elapsed) {
        NYMIX_CHECK_MSG(elapsed.ok(), elapsed.status().ToString().c_str());
        times.push_back(*elapsed);
      });
    }
    bed.sim().RunUntil([&] { return times.size() == static_cast<size_t>(n); });
    double last = 0;
    for (double t : times) {
      last = std::max(last, t);
    }
    double ideal = single_ideal * n;
    std::printf("%-5d %12.1f %12.1f %11.1f%%\n", n, last, ideal, 100.0 * (last - ideal) / ideal);
    stats.Set("download_s_nyms_" + std::to_string(n), last);
    stats.Set("overhead_pct_nyms_" + std::to_string(n), 100.0 * (last - ideal) / ideal);
  }

  std::printf("\n# overhead is flat in N: Tor's cost is a fixed per-byte factor (paper: ~12%%)\n");

  stats.SetLabel("figure", "5");
  return stats.Finish();
}
