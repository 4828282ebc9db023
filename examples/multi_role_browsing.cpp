// Alice's workflow (§2, "Freetopia"): strong barriers between the roles of
// one ordinary user — work mail, family social media, and research about
// her unannounced pregnancy — each in its own nym with an anonymizer
// matched to its sensitivity. Shows per-tracker unlinkability, fingerprint
// homogeneity, KSM savings across concurrent nymboxes, and selective
// persistence (keep the work nym, burn the sensitive one).
//
//   ./build/examples/multi_role_browsing
#include <cstdio>

#include "src/core/metrics.h"
#include "src/core/testbed.h"

using namespace nymix;

int main() {
  Testbed bed(/*seed=*/11);
  std::printf("== Alice: three parallel roles, three nymboxes ==\n\n");

  // Work mail is not secret — incognito mode is cheap. Family social media
  // gets Tor. The sensitive research gets Tor too (she could pick Dissent).
  NymManager::CreateOptions work_options;
  work_options.anonymizer = AnonymizerKind::kIncognito;
  work_options.mode = NymMode::kPersistent;
  Nym* work = bed.CreateNymBlocking("work", work_options);

  NymManager::CreateOptions family_options;
  family_options.anonymizer = AnonymizerKind::kTor;
  Nym* family = bed.CreateNymBlocking("family", family_options);

  NymManager::CreateOptions private_options;
  private_options.anonymizer = AnonymizerKind::kTor;
  private_options.mode = NymMode::kEphemeral;
  Nym* research = bed.CreateNymBlocking("research", private_options);

  std::printf("three nyms up: %zu VMs on the host\n", bed.host().vm_count());
  std::printf("fingerprints identical: %s\n\n",
              (IndistinguishableFingerprints(*work->anon_vm(), *family->anon_vm()) &&
               IndistinguishableFingerprints(*family->anon_vm(), *research->anon_vm()))
                  ? "yes"
                  : "NO (bug)");

  // Browse per role. Facebook is visited by BOTH the family nym and the
  // research nym — the tracker must not link them.
  Website& gmail = bed.sites().ByName("Gmail");
  Website& facebook = bed.sites().ByName("Facebook");
  NYMIX_CHECK(bed.VisitBlocking(work, gmail).ok());
  NYMIX_CHECK(bed.VisitBlocking(family, facebook).ok());
  NYMIX_CHECK(bed.VisitBlocking(research, facebook).ok());

  std::printf("facebook.com tracker log:\n");
  for (const auto& record : facebook.tracker_log()) {
    std::printf("  source=%-15s cookie=%s\n", record.observed_source.ToString().c_str(),
                record.cookie.c_str());
  }
  std::printf("distinct cookies seen: %zu (one per nym; nothing links them)\n",
              facebook.DistinctCookies());
  std::printf("work nym's mail provider saw Alice's real address (%s) — by her choice:\n"
              "  gmail tracker source=%s\n\n",
              bed.host().public_ip().ToString().c_str(),
              gmail.tracker_log()[0].observed_source.ToString().c_str());

  // Memory economics of running three nymboxes (Figure 3 mechanics).
  KsmStats ksm = bed.host().ksm().ScanNow();
  std::printf("host memory: used %s of %s; KSM merged %llu guest pages (saves %s)\n\n",
              FormatSize(bed.host().UsedMemoryBytes()).c_str(), FormatSize(kHostRamBytes).c_str(),
              static_cast<unsigned long long>(ksm.pages_sharing),
              FormatSize(ksm.bytes_saved()).c_str());

  // Selective persistence: keep work, discard the sensitive role entirely.
  LocalStore laptop_disk("laptop-second-partition");
  bool saved = false;
  bed.manager().SaveNymToLocal(*work, laptop_disk, "alices-password",
                               [&](Result<SaveReceipt> r) {
                                 NYMIX_CHECK_MSG(r.ok(), r.status().ToString().c_str());
                                 std::printf("work nym archived locally: %s encrypted\n",
                                             FormatSize(r->logical_size).c_str());
                                 saved = true;
                               });
  bed.sim().RunUntil([&] { return saved; });

  NYMIX_CHECK(bed.manager().TerminateNym(research).ok());
  NYMIX_CHECK(bed.manager().TerminateNym(family).ok());
  NYMIX_CHECK(bed.manager().TerminateNym(work).ok());
  bed.host().ksm().ScanNow();
  std::printf("all nyms terminated; host back to %s used\n",
              FormatSize(bed.host().UsedMemoryBytes()).c_str());
  std::printf("the research role left no trace; the work role can be restored tomorrow\n");
  std::printf("\ncomplete at virtual t=%.1f s\n", ToSeconds(bed.sim().now()));
  return 0;
}
