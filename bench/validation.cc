// §5.1 "Validating the System": the leak-check experiment as a runnable
// report. Captures at the host uplink while an idle and then active Nymix
// client runs; fires cross-VM and LAN probes from AnonVMs and checks that
// every answer channel stays silent.
#include <cstdio>

#include "bench/bench_stats.h"
#include "src/core/testbed.h"

using namespace nymix;

int main(int argc, char** argv) {
  BenchStats stats(FlagSet("validation"), argc, argv);
  Testbed bed(/*seed=*/9);
  stats.Attach(bed.sim());
  PacketCapture capture;
  bed.host().uplink()->AttachCapture(&capture);

  std::printf("# Section 5.1 validation report\n\n");

  // Idle client: only DHCP on the wire.
  bed.host().EmitDhcp();
  bed.sim().loop().RunUntilIdle();
  std::printf("[idle host]      capture: %zu packets, classes:", capture.size());
  for (const auto& [annotation, count] : capture.AnnotationHistogram()) {
    std::printf(" %s=%zu", annotation.c_str(), count);
  }
  std::printf("\n");

  // Two active pseudonyms with different anonymizers.
  Nym* tor_nym = bed.CreateNymBlocking("validate-tor");
  NymManager::CreateOptions dissent_options;
  dissent_options.anonymizer = AnonymizerKind::kDissent;
  Nym* dissent_nym = bed.CreateNymBlocking("validate-dissent", dissent_options);
  NYMIX_CHECK(bed.VisitBlocking(tor_nym, bed.sites().ByName("BBC")).ok());
  NYMIX_CHECK(bed.VisitBlocking(dissent_nym, bed.sites().ByName("Slashdot")).ok());

  std::printf("[active nyms]    capture: %zu packets, classes:", capture.size());
  for (const auto& [annotation, count] : capture.AnnotationHistogram()) {
    std::printf(" %s=%zu", annotation.c_str(), count);
  }
  std::printf("\n\n");

  // Restricted communication model: probes from each AnonVM.
  LeakProbeResult from_tor = ProbeAnonVmIsolation(bed.sim(), bed.host(), *tor_nym, dissent_nym);
  LeakProbeResult from_dissent =
      ProbeAnonVmIsolation(bed.sim(), bed.host(), *dissent_nym, tor_nym);
  std::printf("probe sweep from AnonVM(tor):     sent=%zu answered=%zu dropped=%llu\n",
              from_tor.probes_sent, from_tor.responses_received,
              static_cast<unsigned long long>(from_tor.dropped_by_commvm));
  std::printf("probe sweep from AnonVM(dissent): sent=%zu answered=%zu dropped=%llu\n",
              from_dissent.probes_sent, from_dissent.responses_received,
              static_cast<unsigned long long>(from_dissent.dropped_by_commvm));

  CaptureAudit audit = AuditUplinkCapture(capture);
  std::printf("\nuplink audit: only DHCP + anonymizer traffic: %s\n",
              audit.only_dhcp_and_anonymizers ? "PASS" : "FAIL");
  std::printf("uplink audit: no private/guest source addresses: %s\n",
              audit.no_private_sources ? "PASS" : "FAIL");
  bool silent = from_tor.responses_received == 0 && from_dissent.responses_received == 0;
  std::printf("restricted communication model (no probe answered): %s\n",
              silent ? "PASS" : "FAIL");
  std::printf("\noverall: %s — matches §5.1: \"The AnonVM can only communicate with a\n"
              "functional CommVM and the CommVM could only communicate with the Internet\"\n",
              (audit.Passed() && silent) ? "PASS" : "FAIL");

  stats.SetLabel("section", "5.1");
  stats.Set("probes_sent",
            static_cast<double>(from_tor.probes_sent + from_dissent.probes_sent));
  stats.Set("probes_answered",
            static_cast<double>(from_tor.responses_received + from_dissent.responses_received));
  stats.Set("uplink_packets", static_cast<double>(capture.size()));
  stats.Set("passed", (audit.Passed() && silent) ? 1 : 0);
  int stats_rc = stats.Finish();
  return (audit.Passed() && silent) ? stats_rc : 1;
}
