// Figure 7: "Average startup time by phase for each initial configuration"
// — fresh, pre-configured, and persisted nyms, each ending with a Twitter
// page load. Phases: Boot VM, Start Tor, Load webpage, plus the one-shot
// Ephemeral Nym used to download quasi-persistent state from the cloud.
// Five executions per configuration are averaged, as in §5.4.
#include <cstdio>
#include <vector>

#include "bench/bench_stats.h"
#include "src/core/testbed.h"

using namespace nymix;

namespace {

struct Phases {
  double ephemeral = 0;
  double boot = 0;
  double tor = 0;
  double page = 0;
  double Total() const { return ephemeral + boot + tor + page; }
};

Phases Average(const std::vector<Phases>& runs) {
  Phases avg;
  for (const Phases& run : runs) {
    avg.ephemeral += run.ephemeral;
    avg.boot += run.boot;
    avg.tor += run.tor;
    avg.page += run.page;
  }
  double n = static_cast<double>(runs.size());
  avg.ephemeral /= n;
  avg.boot /= n;
  avg.tor /= n;
  avg.page /= n;
  return avg;
}

double PageLoadSeconds(Testbed& bed, Nym* nym) {
  SimTime start = bed.sim().now();
  auto visit = bed.VisitBlocking(nym, bed.sites().ByName("Twitter"));
  NYMIX_CHECK_MSG(visit.ok(), visit.status().ToString().c_str());
  return ToSeconds(bed.sim().now() - start);
}

}  // namespace

int main(int argc, char** argv) {
  BenchStats stats(FlagSet("fig7_startup"), argc, argv);
  constexpr int kRuns = 5;
  std::vector<Phases> fresh_runs, preconfig_runs, persisted_runs;

  for (int run = 0; run < kRuns; ++run) {
    // --- Fresh: new nym, cold Tor, visit, discard. ----------------------
    {
      Testbed bed(/*seed=*/200 + run);
      stats.Attach(bed.sim());
      NymStartupReport report;
      Nym* nym = bed.CreateNymBlocking("fresh", {}, &report);
      Phases phases;
      phases.boot = ToSeconds(report.boot_vm);
      phases.tor = ToSeconds(report.start_anonymizer);
      phases.page = PageLoadSeconds(bed, nym);
      fresh_runs.push_back(phases);
    }

    // --- Pre-configured: snapshot once, then always load that snapshot
    //     (state is never updated after the session). ---------------------
    {
      Testbed bed(/*seed=*/300 + run);
      stats.Attach(bed.sim());
      NYMIX_CHECK(bed.cloud().CreateAccount("user", "cpw").ok());
      Nym* nym = bed.CreateNymBlocking("preconf");
      bool logged = false;
      nym->browser()->Login(bed.sites().ByName("Twitter"), "acct", "pw",
                            [&](Result<SimTime>) { logged = true; });
      bed.sim().RunUntil([&] { return logged; });
      NYMIX_CHECK(bed.SaveBlocking(nym, "user", "cpw", "npw").ok());
      NYMIX_CHECK(bed.manager().TerminateNym(nym).ok());

      NymStartupReport report;
      auto restored = bed.LoadBlocking("preconf", "user", "cpw", "npw", {}, &report);
      NYMIX_CHECK(restored.ok());
      Phases phases;
      phases.ephemeral = ToSeconds(report.ephemeral_nym);
      phases.boot = ToSeconds(report.boot_vm);
      phases.tor = ToSeconds(report.start_anonymizer);
      phases.page = PageLoadSeconds(bed, *restored);
      preconfig_runs.push_back(phases);
      // Pre-configured: changes are discarded, no save-back.
    }

    // --- Persisted: like pre-configured but each session saves back, so
    //     the downloaded state is larger (browser cache accumulates). -----
    {
      Testbed bed(/*seed=*/400 + run);
      stats.Attach(bed.sim());
      NYMIX_CHECK(bed.cloud().CreateAccount("user", "cpw").ok());
      Nym* nym = bed.CreateNymBlocking("persist");
      bool logged = false;
      nym->browser()->Login(bed.sites().ByName("Twitter"), "acct", "pw",
                            [&](Result<SimTime>) { logged = true; });
      bed.sim().RunUntil([&] { return logged; });
      NYMIX_CHECK(bed.VisitBlocking(nym, bed.sites().ByName("Twitter")).ok());
      NYMIX_CHECK(bed.SaveBlocking(nym, "user", "cpw", "npw").ok());
      NYMIX_CHECK(bed.manager().TerminateNym(nym).ok());
      // A couple of growth cycles before timing, as in §5.3's protocol.
      for (int cycle = 0; cycle < 2; ++cycle) {
        auto r = bed.LoadBlocking("persist", "user", "cpw", "npw");
        NYMIX_CHECK(r.ok());
        NYMIX_CHECK(bed.VisitBlocking(*r, bed.sites().ByName("Twitter")).ok());
        NYMIX_CHECK(bed.SaveBlocking(*r, "user", "cpw", "npw").ok());
        NYMIX_CHECK(bed.manager().TerminateNym(*r).ok());
      }

      NymStartupReport report;
      auto restored = bed.LoadBlocking("persist", "user", "cpw", "npw", {}, &report);
      NYMIX_CHECK(restored.ok());
      Phases phases;
      phases.ephemeral = ToSeconds(report.ephemeral_nym);
      phases.boot = ToSeconds(report.boot_vm);
      phases.tor = ToSeconds(report.start_anonymizer);
      phases.page = PageLoadSeconds(bed, *restored);
      persisted_runs.push_back(phases);
      // Persisted nyms save changes back after the session.
      auto save = bed.SaveBlocking(*restored, "user", "cpw", "npw");
      NYMIX_CHECK(save.ok());
    }
  }

  Phases fresh = Average(fresh_runs);
  Phases preconf = Average(preconfig_runs);
  Phases persisted = Average(persisted_runs);

  std::printf("# Figure 7: average startup time (s) by phase, %d runs each\n", kRuns);
  std::printf("%-14s %10s %10s %10s %12s %8s\n", "config", "boot_vm", "start_tor",
              "load_page", "ephemeral", "total");
  auto row = [](const char* name, const Phases& p) {
    std::printf("%-14s %10.1f %10.1f %10.1f %12.1f %8.1f\n", name, p.boot, p.tor, p.page,
                p.ephemeral, p.Total());
  };
  row("fresh", fresh);
  row("pre-config.", preconf);
  row("persisted", persisted);

  std::printf("\n# quasi-persistent nyms beat fresh on Start Tor (stored entry guards and\n"
              "# cached consensus) but pay for the one-time ephemeral download nym (§5.4)\n");

  stats.SetLabel("figure", "7");
  stats.Set("runs", kRuns);
  auto emit = [&stats](const char* config, const Phases& p) {
    std::string prefix = std::string(config) + ".";
    stats.Set(prefix + "ephemeral_nym_s", p.ephemeral);
    stats.Set(prefix + "boot_vm_s", p.boot);
    stats.Set(prefix + "start_tor_s", p.tor);
    stats.Set(prefix + "load_page_s", p.page);
    stats.Set(prefix + "total_s", p.Total());
  };
  emit("fresh", fresh);
  emit("preconfigured", preconf);
  emit("persisted", persisted);
  return stats.Finish();
}
