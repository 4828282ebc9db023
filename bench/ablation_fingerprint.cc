// Fingerprint-homogeneity ablation (§4.2 / §6's Panopticlick discussion):
// how many bits of identifying information does a browser's device
// fingerprint carry? Conventional machines differ in CPU model, screen,
// MAC, and core count; every Nymix AnonVM reports the same values, so
// within the Nymix population a fingerprint carries ~0 bits.
#include <cstdio>

#include "bench/bench_stats.h"
#include "src/core/metrics.h"
#include "src/core/testbed.h"

using namespace nymix;

int main(int argc, char** argv) {
  BenchStats stats(FlagSet("ablation_fingerprint"), argc, argv);
  constexpr size_t kPopulation = 5000;
  Prng prng(31337);

  // Conventional browsers: natural hardware variety.
  auto natives = SyntheticNativePopulation(kPopulation, prng);
  double native_bits_total = 0;
  double native_bits_max = 0;
  for (size_t i = 0; i < 200; ++i) {
    double bits = FingerprintSurprisalBits(natives, natives[i * 17 % natives.size()]);
    native_bits_total += bits;
    native_bits_max = std::max(native_bits_max, bits);
  }

  // Nymix browsers: sample real AnonVMs from a deployment.
  Testbed bed(12);
  stats.Attach(bed.sim());
  std::vector<FingerprintSurface> nymix_population;
  std::vector<Nym*> nyms;
  for (int i = 0; i < 6; ++i) {
    nyms.push_back(bed.CreateNymBlocking("fp-" + std::to_string(i)));
  }
  for (Nym* nym : nyms) {
    nymix_population.push_back(FingerprintOf(*nym->anon_vm()));
  }
  // Scale the sample up to the same population size (every Nymix VM is
  // identical, so replication is exact, not an approximation).
  while (nymix_population.size() < kPopulation) {
    nymix_population.push_back(nymix_population[0]);
  }
  double nymix_bits = FingerprintSurprisalBits(nymix_population, nymix_population[3]);

  std::printf("# Device-fingerprint surprisal within a %zu-browser population\n", kPopulation);
  std::printf("%-24s %14s %14s\n", "population", "mean bits", "max bits");
  std::printf("%-24s %14.2f %14.2f\n", "conventional browsers", native_bits_total / 200,
              native_bits_max);
  std::printf("%-24s %14.2f %14.2f\n", "Nymix AnonVMs", nymix_bits, nymix_bits);

  std::printf("\n# every AnonVM reports: cpu=\"%s\" res=%s mac=%s cores=%u\n",
              nymix_population[0].cpu_model.c_str(), nymix_population[0].resolution.c_str(),
              nymix_population[0].mac.c_str(), nymix_population[0].visible_cpus);
  std::printf("# §4.2: \"we want Nymix to run the same on every machine\"; structural\n"
              "# homogeneity is \"future proof\" vs the plugin arms race (§6, Han et al.)\n");

  stats.Set("native_mean_bits", native_bits_total / 200);
  stats.Set("native_max_bits", native_bits_max);
  stats.Set("nymix_bits", nymix_bits);
  return stats.Finish();
}
