// Equivalence tests for the host-cost hot paths (docs/performance.md): the
// closed-form KSM merge must match the brute-force page-array model kept in
// tests/ksm_model.h, and the dirty-driven fair-share scheduler must produce
// results bit-identical to its full-recompute reference
// (set_full_recompute), under randomized seeded stress. The introspection
// counters double-check that the fast paths were actually taken — an
// equivalence test that silently fell back to recomputing everything would
// prove nothing.
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/hv/ksm.h"
#include "src/net/simulation.h"
#include "src/util/prng.h"
#include "tests/ksm_model.h"

namespace nymix {
namespace {

// ------------------------------------------------------------------- KSM

class KsmEquivalenceTest : public ::testing::Test {
 protected:
  // A GuestMemory and its page-array model, driven by the same calls.
  struct Shadowed {
    explicit Shadowed(uint64_t ram) : real(ram), model(real.total_pages()) {}
    void Map(const BaseImage& image, uint64_t count) {
      real.MapImagePages(image, count);
      model.MapImagePages(image, count);
    }
    void Dirty(uint64_t count) {
      real.DirtyPages(count);
      model.DirtyPages(count);
    }
    void Wipe() {
      real.Wipe();
      model.Wipe();
    }
    GuestMemory real;
    PageArrayMemory model;
  };

  KsmEquivalenceTest()
      : image_(BaseImage::CreateDistribution("img", 7, 8 * kMiB)),
        ksm_(loop_, [this] { return Enumerate(); }) {}

  std::vector<const GuestMemory*> Enumerate() const {
    std::vector<const GuestMemory*> out;
    for (const auto& memory : memories_) {
      out.push_back(&memory->real);
    }
    return out;
  }

  Shadowed& AddMemory(uint64_t ram = 64 * kMiB) {
    memories_.push_back(std::make_unique<Shadowed>(ram));
    return *memories_.back();
  }

  void ExpectScansAgree() {
    KsmStats a = ksm_.ScanNow();
    std::vector<const PageArrayMemory*> models;
    for (const auto& memory : memories_) {
      models.push_back(&memory->model);
    }
    memory_scans_ += memories_.size();
    KsmStats b = BruteForceMerge(models);
    ASSERT_EQ(a.pages_shared, b.pages_shared);
    ASSERT_EQ(a.pages_sharing, b.pages_sharing);
  }

  EventLoop loop_;
  std::shared_ptr<const BaseImage> image_;
  std::vector<std::unique_ptr<Shadowed>> memories_;
  KsmDaemon ksm_;
  // Memories enumerated over all passes: what a daemon that merged every
  // memory on every pass would count as merged.
  uint64_t memory_scans_ = 0;
};

TEST_F(KsmEquivalenceTest, RandomizedMutationsStayBitIdentical) {
  Prng prng(0xBEEF);
  for (int i = 0; i < 4; ++i) {
    AddMemory().Map(*image_, 1500 + 200 * static_cast<uint64_t>(i));
  }
  for (int round = 0; round < 60; ++round) {
    switch (prng.NextBelow(6)) {
      case 0:  // a VM boots
        if (memories_.size() < 8) {
          AddMemory().Map(*image_, prng.NextInRange(500, 3000));
        }
        break;
      case 1:  // a VM is destroyed (vanishes from enumeration)
        if (memories_.size() > 1) {
          memories_.erase(memories_.begin() +
                          static_cast<long>(prng.NextBelow(memories_.size())));
        }
        break;
      case 2:  // secure erase at nym termination
        memories_[prng.NextBelow(memories_.size())]->Wipe();
        break;
      case 3:  // browser heap growth
        memories_[prng.NextBelow(memories_.size())]->Dirty(prng.NextInRange(1, 800));
        break;
      case 4:  // page-cache growth
        memories_[prng.NextBelow(memories_.size())]->Map(*image_, prng.NextInRange(1, 500));
        break;
      default:  // quiet round: nothing changes, the totals must still agree
        break;
    }
    ExpectScansAgree();
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  // The daemon genuinely skipped: quiet rounds left clean memories alone
  // and far fewer merges happened than one per memory per pass.
  EXPECT_GT(ksm_.memories_skipped(), 0u);
  EXPECT_LT(ksm_.memories_merged(), memory_scans_);
}

TEST_F(KsmEquivalenceTest, FirstScanIsAFullPass) {
  AddMemory().Map(*image_, 1000);
  AddMemory().Map(*image_, 1000);
  ExpectScansAgree();
  EXPECT_EQ(ksm_.memories_skipped(), 0u);
  EXPECT_EQ(ksm_.memories_merged(), 2u);
  EXPECT_GT(ksm_.stats().pages_sharing, 0u);
}

TEST_F(KsmEquivalenceTest, RetiredMemoryLeavesTheIndex) {
  AddMemory().Map(*image_, 2000);
  AddMemory().Map(*image_, 2000);
  ExpectScansAgree();
  uint64_t sharing_with_two = ksm_.stats().pages_sharing;
  memories_.pop_back();
  ExpectScansAgree();
  EXPECT_LT(ksm_.stats().pages_sharing, sharing_with_two);
}

TEST(GuestMemoryTest, GenerationBumpsOnEveryMutation) {
  auto image = BaseImage::CreateDistribution("img", 7, 8 * kMiB);
  GuestMemory memory(64 * kMiB);
  uint64_t generation = memory.generation();
  memory.MapImagePages(*image, 100);
  EXPECT_GT(memory.generation(), generation);
  generation = memory.generation();
  memory.DirtyPages(10);
  EXPECT_GT(memory.generation(), generation);
  generation = memory.generation();
  memory.Wipe();
  EXPECT_GT(memory.generation(), generation);
}

TEST(GuestMemoryTest, IdsFollowCreationOrder) {
  GuestMemory first(1 * kMiB);
  GuestMemory second(1 * kMiB);
  EXPECT_LT(first.id(), second.id());
}

// ------------------------------------------------------------------ flows

// Drives an identical randomized scenario on one simulation: three disjoint
// link clusters (so components exist to decompose), staggered flows,
// cancellations and link flaps, all from the sim's own seeded Prng. Returns
// a log of every observable: sampled rates for every flow id ever issued,
// and (id, completion time) pairs.
std::vector<uint64_t> DriveFlowScenario(Simulation& sim, int steps) {
  std::vector<std::vector<Link*>> clusters;
  for (int c = 0; c < 3; ++c) {
    std::vector<Link*> links;
    std::string prefix = "c" + std::to_string(c);
    links.push_back(sim.CreateLink(prefix + "-uplink", Millis(5), 8'000'000));
    links.push_back(sim.CreateLink(prefix + "-relay-a", Millis(12), 4'000'000));
    links.push_back(sim.CreateLink(prefix + "-relay-b", Millis(9), 2'000'000));
    clusters.push_back(links);
  }

  std::vector<uint64_t> log;
  std::vector<FlowId> issued;
  FlowOptions options;
  options.stall_timeout = Seconds(5);
  for (int i = 0; i < steps; ++i) {
    std::vector<Link*>& links = clusters[sim.prng().NextBelow(clusters.size())];
    switch (sim.prng().NextBelow(8)) {
      case 0:  // flap a link down...
        links[sim.prng().NextBelow(links.size())]->SetDown(true);
        break;
      case 1:  // ...and back up
        links[sim.prng().NextBelow(links.size())]->SetDown(false);
        break;
      case 2:  // cancel some flow (may already be done — also fine)
        if (!issued.empty()) {
          sim.flows().CancelFlow(issued[sim.prng().NextBelow(issued.size())]);
        }
        break;
      default: {  // start a flow on a route within the cluster
        std::vector<Link*> path = {links[0]};
        if (sim.prng().NextBelow(2) == 0) {
          path.push_back(links[1 + sim.prng().NextBelow(2)]);
        }
        FlowId id = sim.flows().StartFlow(Route::Through(path),
                                          sim.prng().NextInRange(20'000, 400'000), 1.0,
                                          options, [](Result<SimTime>) {});
        issued.push_back(id);
        break;
      }
    }
    sim.RunFor(Millis(sim.prng().NextBelow(40)));
    // Snapshot every flow's rate — including inactive ids, which must
    // report 0 identically in both modes.
    for (FlowId id : issued) {
      log.push_back(sim.flows().FlowRateBps(id));
    }
    log.push_back(sim.now() < 0 ? 0 : static_cast<uint64_t>(sim.now()));
  }
  // Bring every link back up and drain.
  for (auto& links : clusters) {
    for (Link* link : links) {
      link->SetDown(false);
    }
  }
  sim.RunUntil([&] { return sim.flows().active_flows() == 0; });
  log.push_back(static_cast<uint64_t>(sim.now()));
  return log;
}

TEST(FlowEquivalenceTest, IncrementalMatchesFullRecomputeUnderStress) {
  Simulation incremental(0xF10E);
  Simulation full(0xF10E);
  full.flows().set_full_recompute(true);

  std::vector<uint64_t> log_a = DriveFlowScenario(incremental, 120);
  std::vector<uint64_t> log_b = DriveFlowScenario(full, 120);
  EXPECT_EQ(log_a, log_b);

  // The incremental scheduler really scheduled incrementally: it skipped
  // clean reschedules, restricted dirty ones to components, and never fell
  // back to a full pass (no empty-route flows in this scenario).
  EXPECT_GT(incremental.flows().waterfill_skips(), 0u);
  EXPECT_GT(incremental.flows().waterfills_component(), 0u);
  EXPECT_EQ(incremental.flows().waterfills_full(), 0u);
  EXPECT_EQ(full.flows().waterfills_component(), 0u);
  EXPECT_EQ(full.flows().waterfill_skips(), 0u);
  // Same number of rate refreshes happened; only their scope differed.
  EXPECT_EQ(full.flows().waterfills_full(),
            incremental.flows().waterfills_component() + incremental.flows().waterfill_skips());
}

TEST(FlowEquivalenceTest, RepeatedSeedsStayIdentical) {
  for (uint64_t seed : {7ull, 21ull, 0xD15Cull}) {
    Simulation incremental(seed);
    Simulation full(seed);
    full.flows().set_full_recompute(true);
    EXPECT_EQ(DriveFlowScenario(incremental, 60), DriveFlowScenario(full, 60)) << seed;
  }
}

TEST(FlowEquivalenceTest, EmptyRouteFlowForcesFullWaterfill) {
  Simulation sim(5);
  Link* link = sim.CreateLink("uplink", Millis(5), 8'000'000);
  bool normal_done = false;
  sim.flows().StartFlow(Route::Through({link}), 100'000, 1.0,
                        [&](SimTime) { normal_done = true; });
  bool empty_done = false;
  sim.flows().StartFlow(Route{}, 50'000, 1.0, [&](SimTime) { empty_done = true; });
  sim.RunUntil([&] { return normal_done && empty_done; });
  // The empty-route flow's rate is the global first-round min share, so its
  // arrival must have forced at least one full pass.
  EXPECT_GT(sim.flows().waterfills_full(), 0u);
}

TEST(FlowEquivalenceTest, CleanRescheduleSkipsTheWaterfill) {
  Simulation sim(5);
  Link* link = sim.CreateLink("uplink", Millis(5), 8'000'000);
  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    sim.flows().StartFlow(Route::Through({link}), 200'000, 1.0, [&](SimTime) { ++completed; });
  }
  sim.RunUntil([&] { return completed == 4; });
  // Every StartFlow triggers a Reschedule before the flow has started (it
  // is still in setup); those are clean and must not waterfill.
  EXPECT_GT(sim.flows().waterfill_skips(), 0u);
  EXPECT_GT(sim.flows().waterfills_component(), 0u);
}

// -------------------------------------------------------------- event loop

TEST(EventLoopNodePoolTest, SteadyStateSchedulingReusesNodes) {
  EventLoop loop;
  Observability obs;
  obs.metrics.set_enabled(true);
  loop.set_observability(&obs);
  int ran = 0;
  // Alternate schedule/run so the pool (capacity 256) absorbs every node.
  for (int i = 0; i < 512; ++i) {
    loop.ScheduleAfter(1, [&ran] { ++ran; });
    loop.RunUntilIdle();
  }
  EXPECT_EQ(ran, 512);
  uint64_t reuses = obs.metrics.GetCounter("core.event_loop.callback_node_reuses")->value();
  uint64_t allocs = obs.metrics.GetCounter("core.event_loop.callback_node_allocs")->value();
  EXPECT_GT(reuses, 500u);
  EXPECT_LT(allocs, 12u);
}

TEST(EventLoopNodePoolTest, CancelRecyclesAndStaysCorrect) {
  EventLoop loop;
  int ran = 0;
  for (int i = 0; i < 300; ++i) {
    uint64_t keep = loop.ScheduleAfter(1, [&ran] { ++ran; });
    uint64_t drop = loop.ScheduleAfter(2, [&ran] { ran += 1000; });
    EXPECT_TRUE(loop.Cancel(drop));
    EXPECT_FALSE(loop.Cancel(drop));
    loop.RunUntilIdle();
    EXPECT_FALSE(loop.Cancel(keep));
  }
  EXPECT_EQ(ran, 300);
}

}  // namespace
}  // namespace nymix
