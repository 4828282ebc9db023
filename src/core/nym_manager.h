// NymManager: Nymix's most crucial component (§3.1) — creates, boots,
// saves, restores, and destroys nymboxes; binds each pseudonym's client
// state, anonymizer state and credentials to its nym; and enforces the
// lifecycle rules that make nyms ephemeral by default.
//
// Figure 7's phases fall directly out of CreateNym/LoadNym: VM boot,
// anonymizer start, and (for quasi-persistent loads) the one-shot
// ephemeral nym that fetches the encrypted state from the cloud.
#ifndef SRC_CORE_NYM_MANAGER_H_
#define SRC_CORE_NYM_MANAGER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/anon/chain.h"
#include "src/anon/dissent.h"
#include "src/anon/incognito.h"
#include "src/anon/sweet.h"
#include "src/anon/tor.h"
#include "src/core/nym.h"
#include "src/storage/cloud.h"
#include "src/storage/local_store.h"

namespace nymix {

struct NymStartupReport {
  SimDuration ephemeral_nym = 0;     // cloud loads only: fetch + decrypt
  SimDuration boot_vm = 0;           // until both VMs run
  SimDuration start_anonymizer = 0;  // bootstrap (Tor: directory + circuit)

  SimDuration Total() const { return ephemeral_nym + boot_vm + start_anonymizer; }
};

struct SaveReceipt {
  uint32_t sequence = 0;
  uint64_t logical_size = 0;    // the Figure 6 data point
  uint64_t sealed_bytes = 0;
  double anonvm_fraction = 0.0;  // ~0.85 in §5.3
  SimDuration duration = 0;
};

class NymManager {
 public:
  struct Config {
    // Archive pipeline throughput (serialize+compress+encrypt), bytes/s.
    uint64_t archive_processing_bps = 50 * kMiB;
  };

  NymManager(HostMachine& host, std::shared_ptr<const BaseImage> image, TorNetwork* tor,
             DissentServers* dissent)
      : NymManager(host, std::move(image), tor, dissent, Config{}) {}
  NymManager(HostMachine& host, std::shared_ptr<const BaseImage> image, TorNetwork* tor,
             DissentServers* dissent, Config config);
  ~NymManager();

  struct CreateOptions {
    AnonymizerKind anonymizer = AnonymizerKind::kTor;
    NymMode mode = NymMode::kEphemeral;
    // Deterministic guard selection (§3.5); usually DeriveGuardSeed(...).
    std::optional<uint64_t> guard_seed;
    // Chain composition (kChained): inner wrapped by outer.
    AnonymizerKind chain_inner = AnonymizerKind::kDissent;
    AnonymizerKind chain_outer = AnonymizerKind::kTor;
    // Leak plant (src/adversary): forwarded to TorClientConfig::exit_pin_seed
    // so every nym sharing the key reuses the same exit per destination —
    // the "reused circuit" isolation failure. Never set on clean paths.
    std::optional<uint64_t> circuit_reuse_key;
  };

  using CreateCallback = std::function<void(Result<Nym*>, NymStartupReport)>;

  // Boots a fresh nym from the pristine base state.
  void CreateNym(const std::string& name, const CreateOptions& options, CreateCallback done);

  // Tears a nym down: wipes VM memory, discards writable disks, removes
  // the VMs from the host. The pseudonym never existed (§3.4).
  Status TerminateNym(Nym* nym);

  // --- Fault injection and recovery ------------------------------------
  // Crashes both of the nym's VMs where they stand (no secure wipe — a
  // crash is precisely the case where nothing gets to clean up).
  void InjectCrash(Nym& nym);

  // Syncs the anonymizer's state (entry guards, cached consensus) into the
  // CommVM's writable layer, the way tor periodically rewrites its state
  // file. A later RecoverNym picks this up even though the crash itself
  // never got to save anything.
  Status CheckpointNym(Nym& nym);

  // Rebuilds a crashed (or live) nym from its own writable disk layers:
  // snapshots both layers and the saved anonymizer state, terminates the
  // wreck, then wires and boots a replacement under the same name and
  // options. Guard choice survives because the anonymizer re-derives it
  // from the restored state (§3.5's intersection-attack defence).
  void RecoverNym(Nym* nym, CreateCallback done);

  // Rebuilds a nym from externally captured state — the whole-host restore
  // path (src/core/fleet_checkpoint). Unlike RecoverNym it does not need
  // the wreck to still exist: any same-named nym is torn down first, then
  // a replacement is wired and booted with the given writable layers and
  // save sequence. Guard choice survives exactly as in RecoverNym, by the
  // anonymizer re-deriving it from the restored CommVM state.
  void RestoreNymFromState(const std::string& name, const CreateOptions& options,
                           std::unique_ptr<MemFs> anon_writable,
                           std::unique_ptr<MemFs> comm_writable, uint32_t next_sequence,
                           CreateCallback done);

  // Creation options recorded for a live nym, or null. Checkpointing reads
  // these so a restore can re-wire the nym exactly as it was created.
  const CreateOptions* FindOptions(const std::string& name) const;

  std::vector<Nym*> nyms() const;
  Nym* FindNym(const std::string& name) const;
  HostMachine& host() { return host_; }
  Simulation& sim() { return host_.sim(); }
  const std::shared_ptr<const BaseImage>& base_image() const { return image_; }

  // --- Quasi-persistent nyms (§3.5) -----------------------------------
  // Pauses the nym, archives both writable layers (anonymizer state
  // included), resumes, and uploads through the nym's own anonymizer.
  void SaveNymToCloud(Nym& nym, CloudService& cloud, const std::string& account,
                      const std::string& account_password,
                      const std::string& archive_password,
                      std::function<void(Result<SaveReceipt>)> done);

  // Local variant ("either on different local disks or USB drives").
  void SaveNymToLocal(Nym& nym, LocalStore& store, const std::string& password,
                      std::function<void(Result<SaveReceipt>)> done);

  // Starts a one-shot ephemeral nym, downloads and decrypts the archive,
  // terminates the loader, then boots the restored nym.
  void LoadNymFromCloud(const std::string& name, CloudService& cloud,
                        const std::string& account, const std::string& account_password,
                        const std::string& archive_password, const CreateOptions& options,
                        CreateCallback done);

  void LoadNymFromLocal(const std::string& name, LocalStore& store,
                        const std::string& password, const CreateOptions& options,
                        CreateCallback done);

  // Registers a pseudonymous account at the cloud provider through the
  // nym's anonymizer (the §3.5 workflow's login step).
  void CreateCloudAccount(Nym& nym, CloudService& cloud, const std::string& account,
                          const std::string& password, std::function<void(Status)> done);

  // Configuration layer for a role (masks rc.local etc., §3.4/§4.2).
  std::shared_ptr<const MemFs> ConfigLayerFor(VmRole role, AnonymizerKind kind);

 private:
  struct RestoredState {
    std::unique_ptr<MemFs> anon_writable;
    std::unique_ptr<MemFs> comm_writable;
    uint32_t next_sequence = 0;
  };

  // Wires links, VMs, policy and anonymizer; no boot yet.
  Result<Nym*> WireNym(const std::string& name, const CreateOptions& options);
  void BootNym(Nym* nym, RestoredState* restored, SimDuration ephemeral_phase,
               CreateCallback done);
  std::unique_ptr<Anonymizer> MakeAnonymizer(const CreateOptions& options,
                                             const ClientAttachment& attachment);
  Result<NymArchive> ArchiveNym(Nym& nym, const std::string& password);
  void LoadCommon(const std::string& name, const std::string& password,
                  const CreateOptions& options, Result<NymArchive> archive,
                  SimTime load_started, Status auth, CreateCallback done);

  HostMachine& host_;
  std::shared_ptr<const BaseImage> image_;
  TorNetwork* tor_;
  DissentServers* dissent_;
  Config config_;
  std::vector<std::unique_ptr<Nym>> nyms_;
  // Creation options per live nym, so RecoverNym can rebuild a crashed nym
  // exactly as it was wired (string-keyed: deterministic iteration).
  std::map<std::string, CreateOptions> options_by_name_;
  uint64_t next_nym_seed_ = 1;
};

}  // namespace nymix

#endif  // SRC_CORE_NYM_MANAGER_H_
