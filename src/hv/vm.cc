#include "src/hv/vm.h"

namespace nymix {

VmConfig VmConfig::AnonVm(std::string name) {
  VmConfig config;
  config.name = std::move(name);
  config.role = VmRole::kAnonVm;
  config.ram_bytes = 384 * kMiB;
  config.disk_capacity = 128 * kMiB;
  config.boot = BootProfile{Millis(800), Seconds(4), SecondsF(5.2)};
  // Post-boot page mix calibrated against Figure 3's KSM counts: most RAM
  // is dirtied by boot (ASLR, slab, tmpfs), ~3.5% stays backed by shared
  // base-image blocks and ~6% remains zero.
  config.boot_image_page_fraction = 0.035;
  config.boot_dirty_page_fraction = 0.905;
  return config;
}

VmConfig VmConfig::CommVm(std::string name) {
  VmConfig config;
  config.name = std::move(name);
  config.role = VmRole::kCommVm;
  config.ram_bytes = 128 * kMiB;
  config.disk_capacity = 16 * kMiB;
  // CommVMs run no GUI and few services; they boot faster.
  config.boot = BootProfile{Millis(800), SecondsF(2.5), SecondsF(1.7)};
  config.boot_image_page_fraction = 0.06;
  config.boot_dirty_page_fraction = 0.91;
  return config;
}

VmConfig VmConfig::SaniVm(std::string name) {
  VmConfig config;
  config.name = std::move(name);
  config.role = VmRole::kSaniVm;
  config.ram_bytes = 256 * kMiB;
  config.disk_capacity = 64 * kMiB;
  config.boot = BootProfile{Millis(800), SecondsF(3.5), SecondsF(2.7)};
  return config;
}

VirtualMachine::VirtualMachine(Simulation& sim, VmConfig config,
                               std::shared_ptr<const BaseImage> image,
                               std::shared_ptr<const MemFs> config_layer)
    : sim_(sim),
      config_(std::move(config)),
      // Loop-scoped id: KSM keys per-memory state by it, and parallel shards
      // must not share (or race on) a process-wide counter.
      memory_(config_.ram_bytes, sim.loop().AllocateObjectId()),
      disk_(image, std::move(config_layer), config_.disk_capacity),
      image_(std::move(image)) {}

VirtualMachine::~VirtualMachine() {
  // Cancel any pending boot completion and unhook NICs: packets already on
  // the wire must drop at the link, not chase a destroyed sink.
  if (boot_event_pending_) {
    sim_.loop().Cancel(boot_event_);
  }
  for (const auto& [link, side_a] : nics_) {
    if (side_a) {
      link->AttachA(nullptr);
    } else {
      link->AttachB(nullptr);
    }
  }
}

void VirtualMachine::Boot(std::function<void(SimTime)> on_ready) {
  NYMIX_CHECK_MSG(state_ == VmState::kCreated || state_ == VmState::kStopped ||
                      state_ == VmState::kCrashed,
                  "Boot() on a VM that is not cold");
  state_ = VmState::kBooting;
  SimDuration total = config_.boot.Total();
  SimTime boot_start = sim_.now();
  boot_event_pending_ = true;
  boot_event_ = sim_.loop().ScheduleAfter(total, [this, boot_start,
                                                  on_ready = std::move(on_ready)] {
    boot_event_pending_ = false;
    if (state_ != VmState::kBooting) {
      return;  // shut down mid-boot
    }
    // The boot finished uninterrupted, so the phase boundaries are known
    // exactly: emit the bios/kernel/services breakdown as nested spans.
    if (TraceRecorder* tracer = sim_.loop().tracer()) {
      const BootProfile& boot = config_.boot;
      tracer->AddComplete("hv", "vm_boot", config_.name, boot_start, boot.Total());
      tracer->AddComplete("hv", "bios", config_.name, boot_start, boot.bios);
      tracer->AddComplete("hv", "kernel", config_.name, boot_start + boot.bios, boot.kernel);
      tracer->AddComplete("hv", "services", config_.name, boot_start + boot.bios + boot.kernel,
                          boot.services);
    }
    if (MetricsRegistry* meters = sim_.loop().meters()) {
      meters->GetCounter("hv.vm_boots")->Increment();
      meters->GetHistogram("hv.vm_boot_us")
          ->Record(static_cast<double>(sim_.now() - boot_start));
    }
    // Boot populates the page cache from the shared base image and dirties
    // kernel/service heaps.
    auto image_pages =
        static_cast<uint64_t>(config_.boot_image_page_fraction * memory_.total_pages());
    auto dirty_pages =
        static_cast<uint64_t>(config_.boot_dirty_page_fraction * memory_.total_pages());
    memory_.MapImagePages(image_->contents(), image_pages);
    memory_.DirtyPages(dirty_pages);
    state_ = VmState::kRunning;
    if (on_ready) {
      on_ready(sim_.now());
    }
  });
}

void VirtualMachine::Pause() {
  NYMIX_CHECK(state_ == VmState::kRunning);
  state_ = VmState::kPaused;
}

void VirtualMachine::Resume() {
  NYMIX_CHECK(state_ == VmState::kPaused);
  state_ = VmState::kRunning;
}

void VirtualMachine::Shutdown(bool secure_wipe) {
  state_ = VmState::kStopped;
  if (secure_wipe) {
    memory_.Wipe();
  }
}

void VirtualMachine::Crash() {
  if (state_ == VmState::kStopped || state_ == VmState::kCrashed) {
    return;  // already dead
  }
  if (boot_event_pending_) {
    sim_.loop().Cancel(boot_event_);
    boot_event_pending_ = false;
  }
  state_ = VmState::kCrashed;
  if (MetricsRegistry* meters = sim_.loop().meters()) {
    meters->GetCounter("hv.vm_crashes")->Increment();
  }
  if (TraceRecorder* tracer = sim_.loop().tracer()) {
    tracer->AddInstant("fault", "vm_crash", config_.name, sim_.now());
  }
}

void VirtualMachine::AttachNic(Link* link, bool side_a) {
  NYMIX_CHECK(link != nullptr);
  nics_[link] = side_a;
  if (side_a) {
    link->AttachA(this);
  } else {
    link->AttachB(this);
  }
}

void VirtualMachine::SendPacket(Link* link, Packet packet) {
  auto it = nics_.find(link);
  NYMIX_CHECK_MSG(it != nics_.end(), "SendPacket on a link without an attached NIC");
  if (state_ != VmState::kRunning) {
    ++packets_dropped_not_running_;
    return;
  }
  if (it->second) {
    link->SendFromA(std::move(packet));
  } else {
    link->SendFromB(std::move(packet));
  }
}

void VirtualMachine::OnPacket(const Packet& packet, Link& link, bool from_a) {
  if (state_ != VmState::kRunning) {
    ++packets_dropped_not_running_;
    return;
  }
  ++packets_received_;
  if (packet_handler_) {
    packet_handler_(packet, link, from_a);
  }
}

Status VirtualMachine::AttachShare(const std::string& tag, std::shared_ptr<MemFs> share) {
  if (shares_.count(tag) > 0) {
    return AlreadyExistsError("share already attached: " + tag);
  }
  shares_.emplace(tag, std::move(share));
  return OkStatus();
}

Result<std::shared_ptr<MemFs>> VirtualMachine::GetShare(const std::string& tag) const {
  auto it = shares_.find(tag);
  if (it == shares_.end()) {
    return NotFoundError("no such share: " + tag);
  }
  return it->second;
}

Status VirtualMachine::DetachShare(const std::string& tag) {
  if (shares_.erase(tag) == 0) {
    return NotFoundError("no such share: " + tag);
  }
  return OkStatus();
}

}  // namespace nymix
