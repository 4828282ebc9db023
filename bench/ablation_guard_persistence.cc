// Guard-persistence ablation (§3.5): why quasi-persistent nyms keep Tor
// state. A pure amnesiac system picks a NEW entry guard every boot, so
// over many sessions the client eventually lands on a compromised guard;
// with a persistent guard the exposure is a single draw. The third column
// is the paper's remaining gap — the ephemeral cloud-download nym picks
// its own fresh guard — and the fourth is the proposed fix implemented
// here: seeding the loader's guard from H(location || password).
//
// Monte Carlo over a synthetic user population using the deployed Tor
// network's guard set (1 of 4 guards compromised).
#include <cstdio>
#include <vector>

#include "bench/bench_stats.h"
#include "src/core/testbed.h"

using namespace nymix;

int main(int argc, char** argv) {
  BenchStats stats(FlagSet("ablation_guard_persistence"), argc, argv);
  constexpr int kUsers = 2000;
  constexpr int kSessions = 30;
  constexpr size_t kGuards = 4;
  constexpr size_t kCompromisedGuard = 2;  // 25% of guard capacity is hostile

  Prng prng(1234);
  std::printf("# Fraction of users whose entry guard was compromised at least once\n");
  std::printf("# %d users, %d sessions, %zu guards (1 compromised)\n", kUsers, kSessions,
              kGuards);
  std::printf("%-10s %16s %16s %20s %18s\n", "sessions", "rotate-per-boot", "persistent",
              "persistent+loader", "seeded (ours)");

  // Per-user persistent guard draws.
  std::vector<size_t> persistent_guard(kUsers);
  std::vector<uint64_t> seed(kUsers);
  for (int u = 0; u < kUsers; ++u) {
    persistent_guard[u] = prng.NextBelow(kGuards);
    seed[u] = prng.NextU64();
  }

  std::vector<bool> exposed_rotate(kUsers, false);
  std::vector<bool> exposed_persist(kUsers, false);
  std::vector<bool> exposed_loader(kUsers, false);
  std::vector<bool> exposed_seeded(kUsers, false);

  for (int s = 1; s <= kSessions; ++s) {
    for (int u = 0; u < kUsers; ++u) {
      // Amnesiac: fresh guard each boot.
      if (prng.NextBelow(kGuards) == kCompromisedGuard) {
        exposed_rotate[u] = true;
      }
      // Persistent: the stored guard, every session.
      if (persistent_guard[u] == kCompromisedGuard) {
        exposed_persist[u] = true;
      }
      // Persistent nym + unseeded ephemeral loader: the nym's own traffic
      // uses the stored guard, but each session's loader picks fresh.
      if (persistent_guard[u] == kCompromisedGuard ||
          prng.NextBelow(kGuards) == kCompromisedGuard) {
        exposed_loader[u] = true;
      }
      // Seeded (this repo's DeriveGuardSeed): loader and nym share the
      // deterministic guard.
      if (seed[u] % kGuards == kCompromisedGuard) {
        exposed_seeded[u] = true;
      }
    }
    if (s == 1 || s == 5 || s == 10 || s == 20 || s == 30) {
      auto frac = [&](const std::vector<bool>& exposed) {
        int count = 0;
        for (bool e : exposed) {
          count += e ? 1 : 0;
        }
        return 100.0 * count / kUsers;
      };
      std::printf("%-10d %15.1f%% %15.1f%% %19.1f%% %17.1f%%\n", s, frac(exposed_rotate),
                  frac(exposed_persist), frac(exposed_loader), frac(exposed_seeded));
      if (s == kSessions) {
        stats.Set("rotate_exposed_pct", frac(exposed_rotate));
        stats.Set("persistent_exposed_pct", frac(exposed_persist));
        stats.Set("loader_exposed_pct", frac(exposed_loader));
        stats.Set("seeded_exposed_pct", frac(exposed_seeded));
      }
    }
  }

  std::printf("\n# rotate-per-boot converges to 100%% (\"greatly increasing her\n"
              "# vulnerability to intersection attacks\", §3.5); a persistent guard\n"
              "# caps exposure at the compromised-capacity fraction. The unseeded\n"
              "# loader leaks back toward the rotating curve — the gap §3.5 notes —\n"
              "# and guard seeding closes it exactly onto the persistent curve.\n");

  // Sanity-tie to the real implementation: two TorClients with the same
  // derived seed pick the same guard through the actual selection code.
  Testbed bed(5);
  stats.Attach(bed.sim());
  uint64_t guard_seed = DeriveGuardSeed("drop.example.com/acct", "pw");
  NymManager::CreateOptions options;
  options.guard_seed = guard_seed;
  Nym* a = bed.CreateNymBlocking("seed-check-a", options);
  Nym* b = bed.CreateNymBlocking("seed-check-b", options);
  auto guard_a = static_cast<TorClient*>(a->anonymizer())->entry_guard_index();
  auto guard_b = static_cast<TorClient*>(b->anonymizer())->entry_guard_index();
  std::printf("\n# implementation check: two seeded clients -> guard %zu and %zu (%s)\n",
              *guard_a, *guard_b, *guard_a == *guard_b ? "match" : "MISMATCH");
  stats.Set("seeded_guards_match", *guard_a == *guard_b ? 1 : 0);
  int stats_rc = stats.Finish();
  return *guard_a == *guard_b ? stats_rc : 1;
}
