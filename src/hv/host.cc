#include "src/hv/host.h"

#include <algorithm>

namespace nymix {
namespace {

// Host uplink shaping: "round trip latency of 80ms and ... rate limited
// to 10 Mbit/s" (§5.2).
constexpr SimDuration kUplinkOneWayLatency = Millis(40);
constexpr uint64_t kUplinkBandwidthBps = 10'000'000;

}  // namespace

HostMachine::HostMachine(Simulation& sim)
    : sim_(sim),
      cpu_(sim.loop(), kHostCores, kHostVirtualizationOverhead),
      ksm_(sim.loop(),
           [this] {
             std::vector<const GuestMemory*> memories;
             memories.reserve(vms_.size());
             for (const auto& vm : vms_) {
               if (vm->state() != VmState::kStopped) {
                 memories.push_back(&vm->memory());
               }
             }
             return memories;
           }),
      uplink_(sim.CreateLink("host-uplink", kUplinkOneWayLatency, kUplinkBandwidthBps)),
      public_ip_(sim.internet().AllocatePublicIp()) {
  sim.internet().AttachUplink(uplink_);
  router_ = std::make_unique<NatGateway>("host-router", uplink_, public_ip_);
}

Result<VirtualMachine*> HostMachine::CreateVm(VmConfig config,
                                              std::shared_ptr<const BaseImage> image,
                                              std::shared_ptr<const MemFs> config_layer) {
  // Admission control: a VM's RAM and full disk capacity both come out of
  // host RAM ("the host allocates disk and RAM from its own stash of RAM,
  // thus limiting the maximum number of nyms", §5.2).
  uint64_t needed = config.ram_bytes + config.disk_capacity;
  if (ReservedMemoryBytes() + needed > kHostRamBytes) {
    return ResourceExhaustedError("host RAM exhausted creating " + config.name);
  }
  vms_.push_back(
      std::make_unique<VirtualMachine>(sim_, std::move(config), std::move(image),
                                       std::move(config_layer)));
  return vms_.back().get();
}

Status HostMachine::DestroyVm(VirtualMachine* vm, bool secure_wipe) {
  auto it = std::find_if(vms_.begin(), vms_.end(),
                         [vm](const auto& owned) { return owned.get() == vm; });
  if (it == vms_.end()) {
    return NotFoundError("VM not owned by this host");
  }
  if (!secure_wipe) {
    // The guest's private (dirtied) pages stay readable in free host RAM.
    residual_bytes_ += (*it)->memory().unique_pages() * kPageSize;
    residual_bytes_ += (*it)->disk().writable_used();
  }
  (*it)->Shutdown(secure_wipe);
  (*it)->DiscardDisk();
  vms_.erase(it);
  return OkStatus();
}

std::vector<VirtualMachine*> HostMachine::vms() const {
  std::vector<VirtualMachine*> out;
  out.reserve(vms_.size());
  for (const auto& vm : vms_) {
    out.push_back(vm.get());
  }
  return out;
}

uint64_t HostMachine::ReservedMemoryBytes() const {
  uint64_t total = kHostBaselineBytes;
  for (const auto& vm : vms_) {
    if (vm->state() == VmState::kStopped) {
      continue;
    }
    total += vm->config().ram_bytes + vm->config().disk_capacity;
  }
  return total;
}

uint64_t HostMachine::AllocatedMemoryBytes() const {
  uint64_t total = kHostBaselineBytes;
  for (const auto& vm : vms_) {
    if (vm->state() == VmState::kStopped) {
      continue;
    }
    total += vm->memory().total_bytes();
    total += vm->disk().writable_used();
  }
  return total;
}

uint64_t HostMachine::UsedMemoryBytes() const {
  uint64_t allocated = AllocatedMemoryBytes();
  uint64_t saved = ksm_.stats().bytes_saved();
  return allocated > saved ? allocated - saved : 0;
}

Link* HostMachine::CreateVmUplink(const std::string& name) {
  // Guest-to-host virtual link: fast and local.
  Link* link = sim_.CreateLink(name, Micros(100), 1'000'000'000ULL);
  router_->AttachInside(link);
  return link;
}

void HostMachine::EmitDhcp() {
  Packet request;
  request.src_mac = MacAddress::StandardGuest();
  request.dst_mac = MacAddress::Broadcast();
  request.src_ip = Ipv4Address(0, 0, 0, 0);
  request.dst_ip = Ipv4Address(255, 255, 255, 255);
  request.src_port = 68;
  request.dst_port = 67;
  request.protocol = IpProtocol::kUdp;
  request.payload = BytesFromString("DHCPDISCOVER");
  request.annotation = "DHCP";
  uplink_->SendFromA(std::move(request));

  Packet ack = {};
  ack.src_ip = kLanRouterIp;
  ack.dst_ip = public_ip_;
  ack.src_port = 67;
  ack.dst_port = 68;
  ack.protocol = IpProtocol::kUdp;
  ack.payload = BytesFromString("DHCPACK");
  ack.annotation = "DHCP";
  uplink_->SendFromA(std::move(ack));
}

}  // namespace nymix
