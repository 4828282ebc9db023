// Staining ablation (§3.3/§3.5): a hostile site plants an evercookie [38]
// — a stain stored outside the cookie jar that survives "clear cookies".
// The experiment runs three sessions against the stainer under each nym
// usage model and reports how many *distinct browser instances* the
// tracker could distinguish (1 = fully linked, 3 = fully unlinkable):
//
//   in-browser private mode  — same VM, cookies cleared between sessions:
//                              the evercookie survives; fully linked.
//   persistent nym           — state saved after every session: the stain
//                              is faithfully preserved; fully linked
//                              (the paper's stated risk of this mode).
//   pre-configured nym       — every session restores the pre-stain
//                              snapshot: "a malware infection affecting
//                              one browsing session will be scrubbed at
//                              the user's next session".
//   ephemeral nyms           — a fresh nymbox per session; nothing to
//                              stain across sessions.
#include <cstdio>

#include "bench/bench_stats.h"
#include "src/core/testbed.h"

using namespace nymix;

namespace {

WebsiteProfile StainerProfile() {
  WebsiteProfile profile;
  profile.name = "Stainer";
  profile.domain = "tracker.example.com";
  profile.page_bytes = 500 * kKiB;
  profile.revisit_bytes = 200 * kKiB;
  profile.cache_first_bytes = 2 * kMiB;
  profile.cache_revisit_bytes = 512 * kKiB;
  profile.plants_evercookie = true;
  profile.memory_dirty_bytes = 4 * kMiB;
  return profile;
}

size_t Report(const char* model, const Website& site) {
  size_t stains = site.DistinctEvercookies();
  std::printf("%-22s %9zu %16zu   %s\n", model, site.visit_count(), stains,
              stains <= 1 ? "LINKED across sessions" : "unlinkable");
  return stains;
}

}  // namespace

int main(int argc, char** argv) {
  BenchStats stats(FlagSet("ablation_staining"), argc, argv);
  std::printf("# Evercookie staining across 3 sessions, per usage model\n");
  std::printf("%-22s %9s %16s   %s\n", "model", "sessions", "distinct stains", "verdict");

  // --- In-browser private mode: one long-lived VM, clear cookies only. ---
  {
    Testbed bed(1);
    Website stainer(bed.sim(), StainerProfile());
    Nym* nym = bed.CreateNymBlocking("private-mode");
    for (int session = 0; session < 3; ++session) {
      NYMIX_CHECK(bed.VisitBlocking(nym, stainer).ok());
      NYMIX_CHECK(nym->browser()->ClearCookies().ok());  // "private browsing"
    }
    stats.Set("private_mode.distinct_stains",
              static_cast<double>(Report("in-browser private", stainer)));
  }

  // --- Persistent nym: save after each session, restore before the next. --
  {
    Testbed bed(2);
    Website stainer(bed.sim(), StainerProfile());
    NYMIX_CHECK(bed.cloud().CreateAccount("u", "cp").ok());
    Nym* nym = bed.CreateNymBlocking("persistent");
    for (int session = 0; session < 3; ++session) {
      NYMIX_CHECK(bed.VisitBlocking(nym, stainer).ok());
      NYMIX_CHECK(bed.SaveBlocking(nym, "u", "cp", "np").ok());
      NYMIX_CHECK(bed.manager().TerminateNym(nym).ok());
      auto restored = bed.LoadBlocking("persistent", "u", "cp", "np");
      NYMIX_CHECK(restored.ok());
      nym = *restored;
    }
    stats.Set("persistent.distinct_stains",
              static_cast<double>(Report("persistent nym", stainer)));
  }

  // --- Pre-configured nym: snapshot BEFORE contact, reload it each time. --
  {
    Testbed bed(3);
    Website stainer(bed.sim(), StainerProfile());
    NYMIX_CHECK(bed.cloud().CreateAccount("u", "cp").ok());
    Nym* nym = bed.CreateNymBlocking("preconf");
    NYMIX_CHECK(bed.SaveBlocking(nym, "u", "cp", "np").ok());  // clean snapshot
    NYMIX_CHECK(bed.manager().TerminateNym(nym).ok());
    for (int session = 0; session < 3; ++session) {
      auto restored = bed.LoadBlocking("preconf", "u", "cp", "np");
      NYMIX_CHECK(restored.ok());
      NYMIX_CHECK(bed.VisitBlocking(*restored, stainer).ok());
      // Session changes deliberately NOT saved back.
      NYMIX_CHECK(bed.manager().TerminateNym(*restored).ok());
    }
    stats.Set("preconfigured.distinct_stains",
              static_cast<double>(Report("pre-configured nym", stainer)));
  }

  // --- Ephemeral nyms: a fresh nymbox per session. ------------------------
  {
    Testbed bed(4);
    Website stainer(bed.sim(), StainerProfile());
    for (int session = 0; session < 3; ++session) {
      Nym* nym = bed.CreateNymBlocking("throwaway-" + std::to_string(session));
      NYMIX_CHECK(bed.VisitBlocking(nym, stainer).ok());
      NYMIX_CHECK(bed.manager().TerminateNym(nym).ok());
    }
    stats.Set("ephemeral.distinct_stains",
              static_cast<double>(Report("ephemeral nyms", stainer)));
  }

  std::printf("\n# §3.5: persistent mode \"increases risk that the effects of a stain ...\n"
              "# will persist for the lifetime of the nym\"; pre-configured mode scrubs\n"
              "# it at the next session; ephemeral nyms never accumulate one.\n");
  return stats.Finish();
}
