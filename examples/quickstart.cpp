// Quickstart: the simplest Nymix session — boot a throwaway nym over Tor,
// read the news, and terminate it. Shows the core lifecycle, the network
// identity the site observed, the leak-validation checks, and the amnesia
// guarantee. All times and sizes are virtual-time simulation values.
//
//   ./build/examples/quickstart
#include <cstdio>

#include "src/core/testbed.h"

using namespace nymix;

int main() {
  Testbed bed(/*seed=*/2024);
  std::printf("== Nymix quickstart: one ephemeral nym ==\n\n");

  // Watch the physical uplink like the paper's Wireshark (§5.1).
  PacketCapture capture;
  bed.host().uplink()->AttachCapture(&capture);
  bed.host().EmitDhcp();

  // 1. Start a fresh nym. The Nym Manager boots an AnonVM + CommVM pair
  //    and bootstraps a dedicated Tor instance inside the CommVM.
  NymStartupReport report;
  Nym* nym = bed.CreateNymBlocking("morning-news", {}, &report);
  std::printf("nym '%s' ready in %.1f s  (boot VMs %.1f s, start Tor %.1f s)\n",
              nym->name().c_str(), ToSeconds(report.Total()), ToSeconds(report.boot_vm),
              ToSeconds(report.start_anonymizer));
  std::printf("nymbox cost: %s of host RAM\n\n",
              FormatSize(nym->anon_vm()->config().ram_bytes +
                         nym->anon_vm()->config().disk_capacity +
                         nym->comm_vm()->config().ram_bytes +
                         nym->comm_vm()->config().disk_capacity)
                  .c_str());

  // 2. Browse. The BBC's tracker sees a Tor exit and a fresh cookie.
  Website& bbc = bed.sites().ByName("BBC");
  auto visit = bed.VisitBlocking(nym, bbc);
  NYMIX_CHECK(visit.ok());
  std::printf("visited %s; the site observed source=%s cookie=%s\n",
              bbc.profile().domain.c_str(),
              bbc.tracker_log()[0].observed_source.ToString().c_str(),
              bbc.tracker_log()[0].cookie.c_str());
  std::printf("our real public address %s never appeared\n\n",
              bed.host().public_ip().ToString().c_str());

  // 3. Validate isolation: raw probe packets from the AnonVM at the LAN,
  //    the host, and the Internet all vanish (§5.1).
  LeakProbeResult probes = ProbeAnonVmIsolation(bed.sim(), bed.host(), *nym, nullptr);
  std::printf("leak probes: %zu sent, %zu answered, %llu dropped by the CommVM\n",
              probes.probes_sent, probes.responses_received,
              static_cast<unsigned long long>(probes.dropped_by_commvm));
  CaptureAudit audit = AuditUplinkCapture(capture);
  std::printf("uplink capture audit: %s — traffic classes:", audit.Passed() ? "PASS" : "FAIL");
  for (const auto& [annotation, count] : audit.histogram) {
    std::printf(" %s=%zu", annotation.c_str(), count);
  }
  std::printf("\n\n");

  // 4. Terminate: memory wiped, disks discarded, nothing remains.
  uint64_t used_before = bed.host().UsedMemoryBytes();
  NYMIX_CHECK(bed.manager().TerminateNym(nym).ok());
  bed.host().ksm().ScanNow();
  std::printf("terminated: host memory %s -> %s (baseline %s); %zu nyms remain\n",
              FormatSize(used_before).c_str(), FormatSize(bed.host().UsedMemoryBytes()).c_str(),
              FormatSize(kHostBaselineBytes).c_str(),
              bed.manager().nyms().size());
  std::printf("\nquickstart complete at virtual t=%.1f s\n", ToSeconds(bed.sim().now()));
  return 0;
}
