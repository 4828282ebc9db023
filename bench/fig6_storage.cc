// Figure 6: "Sizes of quasi-persistent pseudonym data across save/restore
// cycles." Four persistent nyms, each bound to one site (Gmail, Facebook,
// Twitter, Tor Blog); on each of ten cycles the nym is restored from the
// cloud, the browser revisits the site (fetching updates into the cache),
// and the nym is saved back. Reported: the encrypted archive size per
// cycle and the AnonVM share (§5.3: "85% of the pseudonym size").
#include <cstdio>
#include <map>
#include <vector>

#include "bench/bench_stats.h"
#include "src/core/testbed.h"

using namespace nymix;

int main(int argc, char** argv) {
  BenchStats stats(FlagSet("fig6_storage"), argc, argv);
  Testbed bed(/*seed=*/6);
  stats.Attach(bed.sim());
  const std::vector<std::string> kSites = {"Gmail", "Facebook", "Twitter", "TorBlog"};
  NYMIX_CHECK(bed.cloud().CreateAccount("fig6-user", "cloud-pw").ok());

  std::map<std::string, std::vector<double>> sizes_mb;
  std::map<std::string, std::vector<double>> anon_fraction;

  for (const std::string& site_name : kSites) {
    Website& site = bed.sites().ByName(site_name);
    std::string nym_name = "nym-" + site_name;

    // Cycle 1: fresh nym, sign in where applicable, configure the browser
    // to remember the login, save to cloud.
    Nym* nym = bed.CreateNymBlocking(nym_name);
    if (site.profile().supports_login) {
      bool logged = false;
      nym->browser()->Login(site, "user-" + site_name, "pw",
                            [&](Result<SimTime>) { logged = true; });
      bed.sim().RunUntil([&] { return logged; });
    }
    NYMIX_CHECK(bed.VisitBlocking(nym, site).ok());
    auto receipt = bed.SaveBlocking(nym, "fig6-user", "cloud-pw", "nym-pw");
    NYMIX_CHECK(receipt.ok());
    sizes_mb[site_name].push_back(static_cast<double>(receipt->logical_size) / kMiB);
    anon_fraction[site_name].push_back(receipt->anonvm_fraction);
    NYMIX_CHECK(bed.manager().TerminateNym(nym).ok());

    // Cycles 2..10: restore, browse (fetch updates), save back.
    for (int cycle = 2; cycle <= 10; ++cycle) {
      auto restored = bed.LoadBlocking(nym_name, "fig6-user", "cloud-pw", "nym-pw");
      NYMIX_CHECK_MSG(restored.ok(), restored.status().ToString().c_str());
      nym = *restored;
      NYMIX_CHECK(bed.VisitBlocking(nym, site).ok());
      receipt = bed.SaveBlocking(nym, "fig6-user", "cloud-pw", "nym-pw");
      NYMIX_CHECK(receipt.ok());
      sizes_mb[site_name].push_back(static_cast<double>(receipt->logical_size) / kMiB);
      anon_fraction[site_name].push_back(receipt->anonvm_fraction);
      NYMIX_CHECK(bed.manager().TerminateNym(nym).ok());
    }
  }

  std::printf("# Figure 6: encrypted pseudonym size (MB) per save/restore cycle\n");
  std::printf("%-6s %10s %10s %10s %10s\n", "cycle", "Gmail", "Facebook", "Twitter", "TorBlog");
  for (int cycle = 0; cycle < 10; ++cycle) {
    std::printf("%-6d %10.1f %10.1f %10.1f %10.1f\n", cycle + 1, sizes_mb["Gmail"][cycle],
                sizes_mb["Facebook"][cycle], sizes_mb["Twitter"][cycle],
                sizes_mb["TorBlog"][cycle]);
  }

  double fraction_sum = 0;
  int fraction_count = 0;
  for (const auto& [site, fractions] : anon_fraction) {
    (void)site;
    for (double f : fractions) {
      fraction_sum += f;
      ++fraction_count;
    }
  }
  std::printf("\n# mean AnonVM share of archive: %.0f%% (paper: \"85%% of the pseudonym "
              "size\", dominated by the Chromium cache, default cap 83 MB)\n",
              100.0 * fraction_sum / fraction_count);
  std::printf("# single-cycle archives (pre-configured nyms) are \"in the order of "
              "megabytes\": smallest first save = %.1f MB\n",
              sizes_mb["TorBlog"][0]);

  stats.SetLabel("figure", "6");
  stats.Set("mean_anonvm_fraction", fraction_sum / fraction_count);
  for (const std::string& site_name : kSites) {
    stats.Set(site_name + ".first_save_mb", sizes_mb[site_name].front());
    stats.Set(site_name + ".final_save_mb", sizes_mb[site_name].back());
  }
  return stats.Finish();
}
