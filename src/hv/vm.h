// VirtualMachine: one QEMU/KVM guest in the model — RAM pages, a
// three-layer union disk, NIC attachments, VirtFS shares, and a timed boot
// sequence. The hypervisor (HostMachine) creates and destroys these; the
// Nym Manager wires pairs of them into nymboxes.
//
// Fingerprint homogeneity (§4.2): every guest reports the same CPU model,
// screen resolution, MAC and IP regardless of the underlying host.
#ifndef SRC_HV_VM_H_
#define SRC_HV_VM_H_

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "src/hv/guest_memory.h"
#include "src/net/link.h"
#include "src/net/simulation.h"
#include "src/unionfs/disk_image.h"

namespace nymix {

enum class VmRole { kAnonVm, kCommVm, kSaniVm, kInstalledOs };

enum class VmState { kCreated, kBooting, kRunning, kPaused, kStopped, kCrashed };

struct BootProfile {
  SimDuration bios = Millis(800);
  SimDuration kernel = Seconds(4);
  SimDuration services = Seconds(5);

  SimDuration Total() const { return bios + kernel + services; }
};

struct VmConfig {
  std::string name;
  VmRole role = VmRole::kAnonVm;
  uint64_t ram_bytes = 384 * kMiB;
  uint64_t disk_capacity = 128 * kMiB;
  uint32_t vcpus = 1;
  BootProfile boot;
  // Memory shape right after boot, as fractions of total pages.
  double boot_image_page_fraction = 0.10;  // page cache / text from base image
  double boot_dirty_page_fraction = 0.15;  // kernel + service heaps

  // Paper defaults: "allocated 16 MB disk space and 128 MB RAM to each
  // CommVM and 128 MB disk space to each AnonVM" (§5.2).
  static VmConfig AnonVm(std::string name);
  static VmConfig CommVm(std::string name);
  static VmConfig SaniVm(std::string name);
};

class VirtualMachine : public PacketSink {
 public:
  VirtualMachine(Simulation& sim, VmConfig config, std::shared_ptr<const BaseImage> image,
                 std::shared_ptr<const MemFs> config_layer);
  // Detaches all NICs so in-flight packets drop instead of dangling.
  ~VirtualMachine() override;

  const VmConfig& config() const { return config_; }
  const std::string& name() const { return config_.name; }
  VmRole role() const { return config_.role; }
  VmState state() const { return state_; }

  GuestMemory& memory() { return memory_; }
  const GuestMemory& memory() const { return memory_; }
  VmDisk& disk() { return disk_; }
  const VmDisk& disk() const { return disk_; }

  // --- Lifecycle -----------------------------------------------------
  // Boots through bios/kernel/services phases, maps image pages and
  // dirties boot heaps, then calls `on_ready`.
  void Boot(std::function<void(SimTime)> on_ready);
  void Pause();
  void Resume();
  // Stops the VM; with `secure_wipe` (the Nymix default) its memory is
  // zeroed immediately (§3.4). Passing false models a conventional
  // hypervisor that leaves guest pages in host RAM until reuse — the
  // remanence Dunn et al. [18] measure; see HostMachine::ColdBootScan().
  void Shutdown(bool secure_wipe = true);
  // Fault injection: the guest dies where it stands — mid-boot or running.
  // No secure wipe runs (a crash is precisely the case where nothing gets
  // to clean up), so guest pages stay in host RAM: the remanence window
  // §3.4's wipe-on-teardown is designed to close. Boot() accepts a crashed
  // VM, modeling a hypervisor restart of the same instance.
  void Crash();
  void DiscardDisk() { disk_.DiscardWritable(); }

  // --- Networking ----------------------------------------------------
  // A guest NIC bound to one side of a link. Guests forward received
  // packets to a role-specific handler installed by the Nym Manager.
  void AttachNic(Link* link, bool side_a);
  void SetPacketHandler(std::function<void(const Packet&, Link&, bool)> handler) {
    packet_handler_ = std::move(handler);
  }
  // Sends out the NIC attached to `link`; drops if the VM is not running.
  void SendPacket(Link* link, Packet packet);
  void OnPacket(const Packet& packet, Link& link, bool from_a) override;
  uint64_t packets_received() const { return packets_received_; }
  // nymlint:allow(dead-api): tests check a stopped VM drops its packets
  uint64_t packets_dropped_not_running() const { return packets_dropped_not_running_; }

  // --- VirtFS shares (§4.3) -------------------------------------------
  Status AttachShare(const std::string& tag, std::shared_ptr<MemFs> share);
  Result<std::shared_ptr<MemFs>> GetShare(const std::string& tag) const;
  Status DetachShare(const std::string& tag);

  // --- Homogeneous fingerprint surface (§4.2) --------------------------
  std::string CpuModelString() const { return "QEMU Virtual CPU version 2.0.0"; }
  std::string ScreenResolution() const { return "1024x768"; }
  MacAddress GuestMac() const { return MacAddress::StandardGuest(); }
  uint32_t VisibleCpuCount() const { return 1; }

 private:
  Simulation& sim_;
  VmConfig config_;
  VmState state_ = VmState::kCreated;
  GuestMemory memory_;
  VmDisk disk_;
  // link -> attached as side A; ordered by creation id (LinkIdLess) because
  // the destructor walks the NICs and detach order must not depend on
  // heap addresses.
  std::map<Link*, bool, LinkIdLess> nics_;
  std::function<void(const Packet&, Link&, bool)> packet_handler_;
  std::map<std::string, std::shared_ptr<MemFs>> shares_;
  std::shared_ptr<const BaseImage> image_;
  uint64_t boot_event_ = 0;
  bool boot_event_pending_ = false;
  uint64_t packets_received_ = 0;
  uint64_t packets_dropped_not_running_ = 0;
};

}  // namespace nymix

#endif  // SRC_HV_VM_H_
