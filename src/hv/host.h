// HostMachine: the physical laptop running the Nymix hypervisor. Owns RAM
// accounting (Figure 3's "used memory"), the KSM daemon, the CPU scheduler
// (Figure 4), the VM registry, and the host's network attachment: a router
// NAT that carries every CommVM's traffic onto the 10 Mbit uplink (the
// DeterLab-style bottleneck of Figure 5).
#ifndef SRC_HV_HOST_H_
#define SRC_HV_HOST_H_

#include <memory>
#include <vector>

#include "src/hv/cpu_scheduler.h"
#include "src/hv/ksm.h"
#include "src/hv/vm.h"
#include "src/net/nat.h"

namespace nymix {

// The evaluation desktop: "Intel I7 quad core ... 16 GB of RAM" (§5.2).
inline constexpr uint64_t kHostRamBytes = 16 * kGiB;
inline constexpr uint32_t kHostCores = 4;
inline constexpr double kHostVirtualizationOverhead = 0.20;
// Hypervisor + host desktop working set before any nym exists.
inline constexpr uint64_t kHostBaselineBytes = 1100 * kMiB;

class HostMachine {
 public:
  explicit HostMachine(Simulation& sim);

  Simulation& sim() { return sim_; }
  CpuScheduler& cpu() { return cpu_; }
  KsmDaemon& ksm() { return ksm_; }

  // --- VM lifecycle ---------------------------------------------------
  Result<VirtualMachine*> CreateVm(VmConfig config, std::shared_ptr<const BaseImage> image,
                                   std::shared_ptr<const MemFs> config_layer);
  // Shuts the VM down, wipes memory and disk, removes it from the host.
  // With secure_wipe=false the guest's dirty pages linger in host RAM
  // (remanence, [18]); Nymix never does this, but the model lets tests
  // and benches quantify what the wipe buys.
  Status DestroyVm(VirtualMachine* vm, bool secure_wipe = true);

  // --- Memory remanence (§3.4 / Dunn [18]) ------------------------------
  // What a live-confiscation adversary scanning free host RAM finds:
  // bytes of former guest pages not yet wiped or reused.
  // nymlint:allow(dead-api): the remanence check: tests assert a terminated nym leaves no scannable RAM
  uint64_t ColdBootScanBytes() const { return residual_bytes_; }
  // nymlint:allow(dead-api): the determinism test walks every VM on a host
  std::vector<VirtualMachine*> vms() const;
  size_t vm_count() const { return vms_.size(); }

  // --- Memory accounting (Figure 3) ------------------------------------
  // Host RAM in use: baseline + every VM's allocated RAM + every VM's
  // RAM-backed writable disk bytes, minus KSM savings.
  uint64_t UsedMemoryBytes() const;
  // The dashed "expected memory" line: baseline + per-VM (RAM + writable).
  uint64_t AllocatedMemoryBytes() const;
  // Admission-control view: baseline + per-VM (RAM + full disk capacity).
  uint64_t ReservedMemoryBytes() const;

  // --- Networking -------------------------------------------------------
  // The shaped physical uplink; Figure 5 routes pass through this link.
  Link* uplink() { return uplink_; }
  Ipv4Address public_ip() const { return public_ip_; }
  // Creates a guest-side link wired into the host router (one per CommVM).
  Link* CreateVmUplink(const std::string& name);

  // Emits the host's DHCP exchange on the uplink — the only non-anonymizer
  // traffic an idle Nymix host produces (§5.1).
  void EmitDhcp();

 private:
  Simulation& sim_;
  CpuScheduler cpu_;
  KsmDaemon ksm_;
  std::vector<std::unique_ptr<VirtualMachine>> vms_;
  Link* uplink_;
  Ipv4Address public_ip_;
  std::unique_ptr<NatGateway> router_;
  uint64_t residual_bytes_ = 0;
};

}  // namespace nymix

#endif  // SRC_HV_HOST_H_
