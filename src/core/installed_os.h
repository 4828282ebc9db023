// Installed OS as a nym (§3.7, Table 1). Nymix can boot the machine's own
// Windows/Linux installation inside a (non-anonymous) nymbox: the physical
// disk stays read-only, all writes land in a copy-on-write layer, and a
// one-time "repair" pass reconfigures the OS's driver set for the virtual
// hardware. Table 1 measures exactly the three costs this model exposes:
// repair time, boot time, and the size of the resulting COW delta.
#ifndef SRC_CORE_INSTALLED_OS_H_
#define SRC_CORE_INSTALLED_OS_H_

#include "src/core/nym_manager.h"

namespace nymix {

enum class InstalledOsKind { kWindowsVista, kWindows7, kWindows8, kLinux };
std::string_view InstalledOsKindName(InstalledOsKind kind);

struct InstalledOsProfile {
  InstalledOsKind kind = InstalledOsKind::kWindows7;
  // Hardware-bound drivers the repair pass must re-enumerate.
  uint32_t driver_count = 198;
  // Boot-time services started before the desktop appears.
  uint32_t service_count = 49;
  // Windows 8's fast-startup hibernation image must be reset when the
  // "hardware" changes, inflating the COW delta (Table 1's 14 MB outlier).
  bool resets_hiberfile = false;

  static InstalledOsProfile For(InstalledOsKind kind);
};

struct InstalledOsMedia {
  InstalledOsProfile profile;
  std::shared_ptr<MemFs> disk;  // the machine's installed-OS partition
  bool repaired = false;        // virtual-hardware repair already applied
};

// Builds a plausible installed-OS disk (user documents, WiFi credentials,
// a driver store) for the given kind.
InstalledOsMedia MakeInstalledOsMedia(InstalledOsKind kind, uint64_t seed);

struct InstalledOsReport {
  double repair_seconds = 0;  // Table 1 "Repair (S)"
  double boot_seconds = 0;    // Table 1 "Boot (S)"
  uint64_t cow_bytes = 0;     // Table 1 "Size (MB)"
};

class InstalledOsNymService {
 public:
  explicit InstalledOsNymService(NymManager& manager) : manager_(manager) {}

  // Repairs (if needed) and boots the installed OS in a COW nymbox with
  // incognito (non-anonymous) networking. The underlying disk is never
  // written: on completion `media.disk` is byte-identical, and the repair
  // plus all boot writes live in the VM's writable layer.
  void BootAsNym(InstalledOsMedia& media,
                 std::function<void(Result<Nym*>, InstalledOsReport)> done);

 private:
  NymManager& manager_;
};

// Deterministic Table 1 cost model, exposed for the bench and tests.
double RepairSecondsFor(const InstalledOsProfile& profile);
double BootSecondsFor(const InstalledOsProfile& profile);
uint64_t CowBytesFor(const InstalledOsProfile& profile);

// --- Quasi-persistent COW disks (§3.7) -----------------------------------
// "He may ... store his copy-on-write COW disk as quasi-persistent data.
// ... attempting to use the quasi-persistent COW disk after the underlying
// disk has changed can lead to inconsistency or corruption." The snapshot
// records a fingerprint of the base disk; restoring against a changed base
// fails with DATA_LOSS instead of corrupting silently.
struct CowSnapshot {
  Bytes serialized_writable;
  uint64_t base_fingerprint = 0;
};

// Content fingerprint of an installed-OS disk (order-independent over
// (path, content) pairs).
uint64_t DiskFingerprint(const MemFs& disk);

// Captures the running installed-OS nym's COW layer.
// nymlint:allow(dead-api): paper Table 1 workflow: saving an installed OS's copy-on-write state
Result<CowSnapshot> SaveCowState(const Nym& os_nym, const InstalledOsMedia& media);

// Re-applies a snapshot onto a freshly booted installed-OS nym; refuses if
// the underlying disk changed since the snapshot.
// nymlint:allow(dead-api): paper Table 1 workflow: restoring an installed OS's copy-on-write state
Status RestoreCowState(Nym& os_nym, const InstalledOsMedia& media,
                       const CowSnapshot& snapshot);

}  // namespace nymix

#endif  // SRC_CORE_INSTALLED_OS_H_
