// Figure 4: "Accumulated values for parallel running instances of
// Peacekeeper running in independent pseudonyms. 0 represents the
// evaluation when run directly on the host."
//
// Expected curve: the single-nym score scaled by perfect core sharing
// (score / max(1, N/4)). Actual beats expected for N > cores because the
// subtests' render/idle gaps interleave across VMs (§5.2).
#include <cstdio>
#include <vector>

#include "bench/bench_stats.h"
#include "src/core/testbed.h"

using namespace nymix;

namespace {

double AverageScore(Testbed& bed, size_t nyms) {
  std::vector<double> scores;
  for (size_t i = 0; i < nyms; ++i) {
    Peacekeeper::Run(bed.host(), /*virtualized=*/true,
                     [&scores](double score) { scores.push_back(score); });
  }
  bed.sim().RunUntil([&] { return scores.size() == nyms; });
  double total = 0;
  for (double score : scores) {
    total += score;
  }
  return total / static_cast<double>(nyms);
}

}  // namespace

int main(int argc, char** argv) {
  BenchStats stats(FlagSet("fig4_cpu"), argc, argv);
  Testbed bed(/*seed=*/4);
  stats.Attach(bed.sim());
  std::printf("# Figure 4: average Peacekeeper score vs number of nyms\n");
  std::printf("# quad-core host, virtualization overhead %.0f%%\n",
              100 * kHostVirtualizationOverhead);
  std::printf("%-5s %10s %10s\n", "nyms", "actual", "expected");

  // N = 0: native run on the host.
  double native = 0;
  Peacekeeper::Run(bed.host(), /*virtualized=*/false, [&](double score) { native = score; });
  bed.sim().RunUntil([&] { return native > 0; });
  std::printf("%-5d %10.0f %10.0f\n", 0, native, native);

  double single = AverageScore(bed, 1);
  for (size_t n = 1; n <= 8; ++n) {
    double actual = n == 1 ? single : AverageScore(bed, n);
    double expected = Peacekeeper::ExpectedScore(single, n, kHostCores);
    std::printf("%-5zu %10.0f %10.0f\n", n, actual, expected);
    stats.Set("score_nyms_" + std::to_string(n), actual);
  }

  std::printf("\n# single-nym wall-time overhead vs native: %.1f%% "
              "(paper: \"about a 20%% overhead\")\n",
              100.0 * (native / single - 1.0));
  std::printf("# for N > 4 cores, actual > expected: idle gaps overlap (paper's finding)\n");

  stats.SetLabel("figure", "4");
  stats.Set("score_native", native);
  stats.Set("virtualization_overhead_pct", 100.0 * (native / single - 1.0));
  return stats.Finish();
}
