// SaniService: the dedicated, non-networked sanitation VM (§3.6/§4.3).
// On boot it mounts the computer's non-Nymix filesystems read-only; the
// user browses them, drops files into a per-nym transfer directory, the
// scrubbing workflow runs, and only then does the file appear in a VirtFS
// share visible to that nym's AnonVM — the *only* cross-nym file path in
// the system.
#ifndef SRC_CORE_SANIVM_H_
#define SRC_CORE_SANIVM_H_

#include "src/core/nym_manager.h"
#include "src/sanitize/scrubber.h"

namespace nymix {

class SaniService {
 public:
  explicit SaniService(NymManager& manager);

  // Boots the SaniVM; must complete before transfers.
  void Start(std::function<void(SimTime)> ready);
  bool ready() const { return sani_vm_ != nullptr && sani_vm_->state() == VmState::kRunning; }
  VirtualMachine* vm() { return sani_vm_; }

  // Mounts a host filesystem (installed OS partition, camera SD card)
  // read-only under /mnt/<label> inside the SaniVM.
  Status MountHostFilesystem(const std::string& label, std::shared_ptr<const MemFs> fs);
  // nymlint:allow(dead-api): tests check which host filesystems the SaniVM mounted
  std::vector<std::string> MountedFilesystems() const;

  Result<Blob> ReadHostFile(const std::string& label, const std::string& path) const;

  // Creates the per-nym transfer directory + VirtFS share (§3.6: "Nymix
  // creates a unique directory within the SaniVM for each nym").
  Status RegisterNym(Nym& nym);

  struct TransferOutcome {
    RiskReport analysis;                // what was found before scrubbing
    std::vector<std::string> actions;   // transformations applied
    std::string guest_path;             // where the AnonVM sees the file
  };

  // The full workflow: analyze -> scrub at the given paranoia level ->
  // copy into the nym's share. Never moves un-scrubbed bytes.
  Result<TransferOutcome> TransferToNym(Nym& nym, const std::string& label,
                                        const std::string& host_path,
                                        const ScrubOptions& options);

  // --- Staged-directory workflow (§3.6: "The SaniVM detects when the
  // user moves files into this directory and launches the scrubbing
  // workflow") ----------------------------------------------------------
  // Copies a host file into the nym's pending directory inside the SaniVM.
  // nymlint:allow(dead-api): paper section 3.6 workflow: staging a host file for a nym's sanitization
  Status StageForNym(Nym& nym, const std::string& label, const std::string& host_path);
  // Files sitting in the nym's pending directory, not yet scrubbed.
  std::vector<std::string> PendingFiles(const Nym& nym) const;
  // Scrubs every pending file and moves the results into the nym's share;
  // the pending directory is emptied. Files that fail analysis/scrubbing
  // are left pending and reported via their Status.
  // nymlint:allow(dead-api): paper section 3.6 workflow: scrubbing the staged files into the nym
  std::vector<Result<TransferOutcome>> ProcessPending(Nym& nym, const ScrubOptions& options);

  // Pure analysis (the risk list shown to the user before they choose).
  Result<RiskReport> AnalyzeHostFile(const std::string& label, const std::string& path) const;

  // nymlint:allow(dead-api): tests count completed SaniVM transfers
  size_t transfers_completed() const { return transfers_completed_; }

 private:
  NymManager& manager_;
  VirtualMachine* sani_vm_ = nullptr;
  std::map<std::string, std::shared_ptr<const MemFs>> mounts_;
  std::map<std::string, std::shared_ptr<MemFs>> nym_shares_;  // nym name -> share
  Prng prng_;
  size_t transfers_completed_ = 0;
};

}  // namespace nymix

#endif  // SRC_CORE_SANIVM_H_
