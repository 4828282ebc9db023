// Table 1: "Time and memory costs of using various versions of Windows as
// a nym in Nymix" — repair time, boot time, and copy-on-write delta size
// for Windows Vista, 7, and 8 (plus Linux, which needs no repair, §3.7).
#include <cstdio>

#include "bench/bench_stats.h"
#include "src/core/testbed.h"

using namespace nymix;

int main(int argc, char** argv) {
  BenchStats stats(FlagSet("tab1_installed_os"), argc, argv);
  std::printf("# Table 1: installed OS as a nym\n");
  std::printf("%-14s %12s %10s %10s\n", "OS", "Repair (S)", "Boot (S)", "Size (MB)");

  const InstalledOsKind kinds[] = {InstalledOsKind::kWindowsVista, InstalledOsKind::kWindows7,
                                   InstalledOsKind::kWindows8, InstalledOsKind::kLinux};
  for (InstalledOsKind kind : kinds) {
    Testbed bed(/*seed=*/static_cast<uint64_t>(kind) + 50);
    stats.Attach(bed.sim());
    InstalledOsNymService service(bed.manager());
    auto media = MakeInstalledOsMedia(kind, 77);
    uint64_t disk_before = media.disk->TotalBytes();

    InstalledOsReport report;
    bool done = false;
    service.BootAsNym(media, [&](Result<Nym*> nym, InstalledOsReport r) {
      NYMIX_CHECK_MSG(nym.ok(), nym.status().ToString().c_str());
      report = r;
      done = true;
    });
    bed.sim().RunUntil([&] { return done; });
    NYMIX_CHECK(media.disk->TotalBytes() == disk_before);  // COW invariant

    std::printf("%-14s %12.1f %10.1f %10.1f\n", InstalledOsKindName(kind).data(),
                report.repair_seconds, report.boot_seconds,
                static_cast<double>(report.cow_bytes) / kMiB);
    std::string prefix = std::string(InstalledOsKindName(kind)) + ".";
    stats.Set(prefix + "repair_s", report.repair_seconds);
    stats.Set(prefix + "boot_s", report.boot_seconds);
    stats.Set(prefix + "cow_mb", static_cast<double>(report.cow_bytes) / kMiB);
  }

  std::printf("\n# paper values:  Vista 133.7 / 37.7 / 4.9    7: 129.3 / 34.3 / 4.5\n");
  std::printf("#                8: 157.0 / 58.7 / 14      (Linux: boots without repair)\n");
  std::printf("# the physical disk is read-only throughout; all writes hit the COW layer\n");

  stats.SetLabel("table", "1");
  return stats.Finish();
}
