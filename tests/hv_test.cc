#include <gtest/gtest.h>

#include "src/hv/host.h"

namespace nymix {
namespace {

std::shared_ptr<const BaseImage> TestImage() {
  return BaseImage::CreateDistribution("nymix", 42, 64 * kMiB);
}

// ---------------------------------------------------------------- GuestMemory

TEST(GuestMemoryTest, StartsAllZero) {
  GuestMemory memory(384 * kMiB);
  EXPECT_EQ(memory.total_pages(), 384 * kMiB / kPageSize);
  EXPECT_EQ(memory.zero_pages(), memory.total_pages());
  EXPECT_EQ(memory.unique_pages(), 0u);
}

TEST(GuestMemoryTest, MapImagePagesSharedAcrossVms) {
  auto image = TestImage();
  GuestMemory a(64 * kMiB);
  GuestMemory b(64 * kMiB);
  a.MapImagePages(*image, 1000);
  b.MapImagePages(*image, 1000);
  EXPECT_EQ(a.image_pages(), 1000u);
  // Identical contents -> fully mergeable by KSM: every page of both VMs
  // shares, onto the 1000 mapped block contents plus the zero page.
  KsmStats merged = MergeContents({&a.contents(), &b.contents()});
  EXPECT_EQ(merged.pages_sharing, a.total_pages() + b.total_pages());
  EXPECT_EQ(merged.pages_shared, 1000u + 1);
}

TEST(GuestMemoryTest, DirtyConsumesZeroThenImage) {
  auto image = TestImage();
  GuestMemory memory(4 * kMiB);  // 1024 pages
  memory.MapImagePages(*image, 200);
  EXPECT_EQ(memory.zero_pages(), 824u);
  memory.DirtyPages(824);
  EXPECT_EQ(memory.zero_pages(), 0u);
  EXPECT_EQ(memory.image_pages(), 200u);
  memory.DirtyPages(100);  // breaks COW on image pages
  EXPECT_EQ(memory.image_pages(), 100u);
  EXPECT_EQ(memory.unique_pages(), 924u);
  // Cannot dirty more than exists.
  memory.DirtyPages(10'000);
  EXPECT_EQ(memory.unique_pages(), memory.total_pages());
}

TEST(GuestMemoryTest, WipeRestoresZeroState) {
  auto image = TestImage();
  GuestMemory memory(4 * kMiB);
  memory.MapImagePages(*image, 100);
  memory.DirtyPages(500);
  memory.Wipe();
  EXPECT_EQ(memory.zero_pages(), memory.total_pages());
  EXPECT_EQ(memory.unique_pages(), 0u);
  EXPECT_EQ(memory.image_pages(), 0u);
}

// ---------------------------------------------------------------- KSM

TEST(KsmTest, MergesZeroAndImagePagesAcrossVms) {
  EventLoop loop;
  auto image = TestImage();
  GuestMemory a(4 * kMiB);
  GuestMemory b(4 * kMiB);
  a.MapImagePages(*image, 256);
  b.MapImagePages(*image, 256);
  KsmDaemon ksm(loop, [&] { return std::vector<const GuestMemory*>{&a, &b}; });
  KsmStats stats = ksm.ScanNow();
  // 256 image contents shared twice each, plus the zero pages of both VMs.
  EXPECT_EQ(stats.pages_shared, 256u + 1);
  EXPECT_EQ(stats.pages_sharing, 2 * 256u + 2 * (1024 - 256));
  EXPECT_EQ(stats.pages_saved(), stats.pages_sharing - stats.pages_shared);
}

TEST(KsmTest, UniquePagesNeverMerge) {
  EventLoop loop;
  GuestMemory a(4 * kMiB);
  GuestMemory b(4 * kMiB);
  a.DirtyPages(1024);
  b.DirtyPages(1024);
  KsmDaemon ksm(loop, [&] { return std::vector<const GuestMemory*>{&a, &b}; });
  EXPECT_EQ(ksm.ScanNow().pages_sharing, 0u);
}

TEST(KsmTest, PeriodicScanUpdatesStats) {
  EventLoop loop;
  auto image = TestImage();
  GuestMemory a(4 * kMiB);
  KsmDaemon ksm(loop, [&] { return std::vector<const GuestMemory*>{&a}; });
  ksm.Start(Seconds(2));
  loop.RunUntil(Seconds(1));
  uint64_t early = ksm.stats().pages_sharing;  // only zero pages (all merge)
  a.MapImagePages(*image, 512);
  a.MapImagePages(*image, 512);  // maps blocks 0..511 twice -> duplicates
  loop.RunUntil(Seconds(5));
  EXPECT_GE(ksm.stats().pages_sharing, early);
  ksm.Stop();
  EXPECT_FALSE(ksm.running());
}

TEST(KsmTest, RestartWhileRunningAdoptsNewCadenceImmediately) {
  EventLoop loop;
  GuestMemory a(4 * kMiB);
  KsmDaemon ksm(loop, [&] { return std::vector<const GuestMemory*>{&a}; });
  ksm.Start(Seconds(10));
  loop.RunUntil(Seconds(1));
  const uint64_t passes_before = ksm.passes();
  // Re-Start with a shorter interval: the pending 10 s tick must be
  // rescheduled, so the next pass lands 2 s from now, not 9 s out.
  ksm.Start(Seconds(2));
  loop.RunUntil(Seconds(4));
  EXPECT_EQ(ksm.passes(), passes_before + 1);
  // And the old cadence is fully replaced, not stacked: exactly one tick
  // per 2 s interval from the restart.
  loop.RunUntil(Seconds(10));
  EXPECT_EQ(ksm.passes(), passes_before + 4);  // ticks at 3, 5, 7, 9
  ksm.Stop();
}

TEST(KsmTest, StopCancelsThePendingTick) {
  EventLoop loop;
  GuestMemory a(4 * kMiB);
  KsmDaemon ksm(loop, [&] { return std::vector<const GuestMemory*>{&a}; });
  ksm.Start(Seconds(2));
  loop.RunUntil(Seconds(1));
  const uint64_t passes_at_stop = ksm.passes();
  ksm.Stop();
  EXPECT_FALSE(ksm.running());
  loop.RunUntil(Seconds(10));
  EXPECT_EQ(ksm.passes(), passes_at_stop);
  // Start after Stop works from a clean slate: an immediate pass, then
  // the periodic cadence.
  ksm.Start(Seconds(2));
  EXPECT_EQ(ksm.passes(), passes_at_stop + 1);
  loop.RunUntil(Seconds(15));
  EXPECT_EQ(ksm.passes(), passes_at_stop + 3);  // ticks at 12, 14
  ksm.Stop();
}

// ---------------------------------------------------------------- CpuScheduler

TEST(CpuSchedulerTest, SingleNativeTaskRunsAtFullSpeed) {
  EventLoop loop;
  CpuScheduler cpu(loop, 4, 0.20);
  SimTime finished = 0;
  cpu.Submit({CpuPhase::Compute(Seconds(10))}, /*virtualized=*/false,
             [&](SimTime t) { finished = t; });
  loop.RunUntilIdle();
  EXPECT_NEAR(ToSeconds(finished), 10.0, 0.001);
}

TEST(CpuSchedulerTest, VirtualizedTaskPaysOverhead) {
  EventLoop loop;
  CpuScheduler cpu(loop, 4, 0.20);
  SimTime finished = 0;
  cpu.Submit({CpuPhase::Compute(Seconds(10))}, /*virtualized=*/true,
             [&](SimTime t) { finished = t; });
  loop.RunUntilIdle();
  EXPECT_NEAR(ToSeconds(finished), 12.0, 0.001);
}

TEST(CpuSchedulerTest, FourTasksOnFourCoresNoSlowdown) {
  EventLoop loop;
  CpuScheduler cpu(loop, 4, 0.0);
  std::vector<double> times;
  for (int i = 0; i < 4; ++i) {
    cpu.Submit({CpuPhase::Compute(Seconds(5))}, false,
               [&](SimTime t) { times.push_back(ToSeconds(t)); });
  }
  loop.RunUntilIdle();
  for (double t : times) {
    EXPECT_NEAR(t, 5.0, 0.001);
  }
}

TEST(CpuSchedulerTest, EightTasksOnFourCoresHalfSpeed) {
  EventLoop loop;
  CpuScheduler cpu(loop, 4, 0.0);
  std::vector<double> times;
  for (int i = 0; i < 8; ++i) {
    cpu.Submit({CpuPhase::Compute(Seconds(5))}, false,
               [&](SimTime t) { times.push_back(ToSeconds(t)); });
  }
  loop.RunUntilIdle();
  ASSERT_EQ(times.size(), 8u);
  for (double t : times) {
    EXPECT_NEAR(t, 10.0, 0.001);
  }
}

TEST(CpuSchedulerTest, IdlePhasesOverlap) {
  EventLoop loop;
  CpuScheduler cpu(loop, 1, 0.0);
  // Two tasks alternating 1s compute / 1s idle on ONE core: perfect
  // interleaving finishes both in ~4s instead of the naive 6s.
  std::vector<double> times;
  for (int i = 0; i < 2; ++i) {
    cpu.Submit({CpuPhase::Compute(Seconds(1)), CpuPhase::Idle(Seconds(1)),
                CpuPhase::Compute(Seconds(1))},
               false, [&](SimTime t) { times.push_back(ToSeconds(t)); });
  }
  loop.RunUntilIdle();
  ASSERT_EQ(times.size(), 2u);
  double makespan = std::max(times[0], times[1]);
  EXPECT_LT(makespan, 6.0);
  EXPECT_GE(makespan, 4.0 - 0.01);
}

TEST(CpuSchedulerTest, CancelRemovesTask) {
  EventLoop loop;
  CpuScheduler cpu(loop, 1, 0.0);
  bool done = false;
  CpuTaskId id = cpu.Submit({CpuPhase::Compute(Seconds(10))}, false, [&](SimTime) { done = true; });
  loop.RunUntil(Seconds(1));
  EXPECT_TRUE(cpu.CancelTask(id));
  loop.RunUntilIdle();
  EXPECT_FALSE(done);
}

TEST(CpuSchedulerTest, EmptyTaskCompletesImmediately) {
  EventLoop loop;
  CpuScheduler cpu(loop, 1, 0.0);
  bool done = false;
  cpu.Submit({}, false, [&](SimTime) { done = true; });
  loop.RunUntilIdle();
  EXPECT_TRUE(done);
}

// ---------------------------------------------------------------- VirtualMachine

TEST(VmTest, BootTransitionsAndTiming) {
  Simulation sim(1);
  auto vm = VirtualMachine(sim, VmConfig::AnonVm("anon-1"), TestImage(), nullptr);
  EXPECT_EQ(vm.state(), VmState::kCreated);
  SimTime ready = 0;
  vm.Boot([&](SimTime t) { ready = t; });
  EXPECT_EQ(vm.state(), VmState::kBooting);
  sim.loop().RunUntilIdle();
  EXPECT_EQ(vm.state(), VmState::kRunning);
  EXPECT_NEAR(ToSeconds(ready), 10.0, 0.01);  // 0.8 + 4 + 5.2
  // Boot populated the page cache and dirtied heaps.
  EXPECT_GT(vm.memory().image_pages(), 0u);
  EXPECT_GT(vm.memory().unique_pages(), 0u);
}

TEST(VmTest, CommVmBootsFaster) {
  Simulation sim(1);
  auto vm = VirtualMachine(sim, VmConfig::CommVm("comm-1"), TestImage(), nullptr);
  SimTime ready = 0;
  vm.Boot([&](SimTime t) { ready = t; });
  sim.loop().RunUntilIdle();
  EXPECT_NEAR(ToSeconds(ready), 5.0, 0.01);
}

TEST(VmTest, PauseResumeShutdown) {
  Simulation sim(1);
  auto vm = VirtualMachine(sim, VmConfig::CommVm("comm-1"), TestImage(), nullptr);
  vm.Boot(nullptr);
  sim.loop().RunUntilIdle();
  vm.Pause();
  EXPECT_EQ(vm.state(), VmState::kPaused);
  vm.Resume();
  EXPECT_EQ(vm.state(), VmState::kRunning);
  ASSERT_TRUE(vm.disk().WriteFile("/tmp/state", Blob::FromString("x")).ok());
  vm.Shutdown();
  EXPECT_EQ(vm.state(), VmState::kStopped);
  // Memory wiped, but disk survives until DiscardDisk (for archiving).
  EXPECT_EQ(vm.memory().unique_pages(), 0u);
  EXPECT_TRUE(vm.disk().fs().Exists("/tmp/state"));
  vm.DiscardDisk();
  EXPECT_FALSE(vm.disk().fs().Exists("/tmp/state"));
}

TEST(VmTest, ShutdownDuringBootAborts) {
  Simulation sim(1);
  auto vm = VirtualMachine(sim, VmConfig::CommVm("comm-1"), TestImage(), nullptr);
  bool ready = false;
  vm.Boot([&](SimTime) { ready = true; });
  sim.RunFor(Seconds(1));
  vm.Shutdown();
  sim.loop().RunUntilIdle();
  EXPECT_FALSE(ready);
  EXPECT_EQ(vm.state(), VmState::kStopped);
}

TEST(VmTest, PacketsDroppedUnlessRunning) {
  Simulation sim(1);
  auto vm = VirtualMachine(sim, VmConfig::AnonVm("anon-1"), TestImage(), nullptr);
  Link* wire = sim.CreateLink("wire", Millis(1), 1'000'000'000);
  vm.AttachNic(wire, /*side_a=*/false);
  wire->SendFromA(Packet{});
  sim.loop().RunUntilIdle();
  EXPECT_EQ(vm.packets_received(), 0u);
  EXPECT_EQ(vm.packets_dropped_not_running(), 1u);

  vm.Boot(nullptr);
  sim.loop().RunUntilIdle();
  int handled = 0;
  vm.SetPacketHandler([&](const Packet&, Link&, bool) { ++handled; });
  wire->SendFromA(Packet{});
  sim.loop().RunUntilIdle();
  EXPECT_EQ(handled, 1);
  EXPECT_EQ(vm.packets_received(), 1u);
}

TEST(VmTest, VirtFsShares) {
  Simulation sim(1);
  auto vm = VirtualMachine(sim, VmConfig::SaniVm("sani"), TestImage(), nullptr);
  auto share = std::make_shared<MemFs>();
  ASSERT_TRUE(vm.AttachShare("transfer", share).ok());
  EXPECT_FALSE(vm.AttachShare("transfer", share).ok());
  ASSERT_TRUE(share->WriteFile("/photo.jpg", Blob::FromString("img")).ok());
  auto got = vm.GetShare("transfer");
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE((*got)->Exists("/photo.jpg"));
  EXPECT_TRUE(vm.DetachShare("transfer").ok());
  EXPECT_FALSE(vm.GetShare("transfer").ok());
}

TEST(VmTest, HomogeneousFingerprint) {
  Simulation sim(1);
  auto a = VirtualMachine(sim, VmConfig::AnonVm("a"), TestImage(), nullptr);
  auto b = VirtualMachine(sim, VmConfig::AnonVm("b"), TestImage(), nullptr);
  EXPECT_EQ(a.CpuModelString(), b.CpuModelString());
  EXPECT_EQ(a.ScreenResolution(), "1024x768");
  EXPECT_EQ(a.GuestMac(), b.GuestMac());
  EXPECT_EQ(a.VisibleCpuCount(), 1u);
}

// ---------------------------------------------------------------- HostMachine

TEST(HostTest, CreateAndDestroyVms) {
  Simulation sim(1);
  HostMachine host(sim, HostConfig{});
  auto image = TestImage();
  auto vm = host.CreateVm(VmConfig::AnonVm("anon-1"), image, nullptr);
  ASSERT_TRUE(vm.ok());
  EXPECT_EQ(host.vm_count(), 1u);
  EXPECT_TRUE(host.DestroyVm(*vm).ok());
  EXPECT_EQ(host.vm_count(), 0u);
  VirtualMachine* dangling = nullptr;
  EXPECT_FALSE(host.DestroyVm(dangling).ok());
}

TEST(HostTest, AdmissionControlOnRam) {
  Simulation sim(1);
  HostConfig config;
  config.ram_bytes = 2 * kGiB;
  HostMachine host(sim, config);
  auto image = TestImage();
  // Baseline 1.1 GiB + 512 MiB fits; the second one does not.
  ASSERT_TRUE(host.CreateVm(VmConfig::AnonVm("a"), image, nullptr).ok());
  auto second = host.CreateVm(VmConfig::AnonVm("b"), image, nullptr);
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
}

TEST(HostTest, MemoryAccountingWithKsm) {
  Simulation sim(1);
  HostMachine host(sim, HostConfig{});
  auto image = TestImage();
  EXPECT_EQ(host.UsedMemoryBytes(), host.config().baseline_bytes);
  auto a = host.CreateVm(VmConfig::AnonVm("a"), image, nullptr);
  auto b = host.CreateVm(VmConfig::AnonVm("b"), image, nullptr);
  ASSERT_TRUE(a.ok() && b.ok());
  (*a)->Boot(nullptr);
  (*b)->Boot(nullptr);
  sim.loop().RunUntilIdle();
  uint64_t before_ksm = host.UsedMemoryBytes();
  EXPECT_EQ(before_ksm, host.config().baseline_bytes + 2 * 384 * kMiB);
  host.ksm().ScanNow();
  uint64_t after_ksm = host.UsedMemoryBytes();
  EXPECT_LT(after_ksm, before_ksm);
  EXPECT_GT(host.ksm().stats().pages_sharing, 0u);
  // Writable-disk bytes count against host RAM.
  ASSERT_TRUE((*a)->disk().WriteFile("/cache/item", Blob::Synthetic(10 * kMiB, 1)).ok());
  EXPECT_EQ(host.AllocatedMemoryBytes(),
            host.config().baseline_bytes + 2 * 384 * kMiB + 10 * kMiB);
}

TEST(HostTest, DhcpVisibleOnUplinkCapture) {
  Simulation sim(1);
  HostMachine host(sim, HostConfig{});
  PacketCapture capture;
  host.uplink()->AttachCapture(&capture);
  host.EmitDhcp();
  sim.loop().RunUntilIdle();
  EXPECT_EQ(capture.CountAnnotation("DHCP"), 2u);
  EXPECT_TRUE(capture.OnlyContains({"DHCP"}));
}

TEST(HostTest, VmUplinksRouteThroughHostNat) {
  Simulation sim(1);
  HostMachine host(sim, HostConfig{});
  PacketCapture capture;
  host.uplink()->AttachCapture(&capture);
  Link* vm_uplink = host.CreateVmUplink("comm-1-uplink");
  Packet packet;
  packet.src_ip = kGuestCommVmIp;
  packet.src_port = 9001;
  packet.dst_ip = Ipv4Address(203, 0, 113, 1);
  packet.dst_port = 443;
  packet.annotation = "Tor";
  vm_uplink->SendFromA(packet);
  sim.loop().RunUntilIdle();
  ASSERT_EQ(capture.size(), 1u);
  // The guest's private IP never appears on the physical uplink.
  EXPECT_EQ(capture.packets()[0].packet.src_ip, host.public_ip());
}

}  // namespace
}  // namespace nymix
