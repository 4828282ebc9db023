// Cross-module scenarios, property tests, and failure injection that the
// per-module suites don't cover: evercookie staining semantics, lifecycle
// races, resource exhaustion, randomized model-checking of the union
// filesystem, and flow-scheduler conservation properties.
#include <gtest/gtest.h>

#include <map>

#include "src/core/testbed.h"

namespace nymix {
namespace {

// ------------------------------------------------------- Evercookie / staining

WebsiteProfile StainerProfile() {
  WebsiteProfile profile;
  profile.name = "Stainer";
  profile.domain = "tracker.example.com";
  profile.page_bytes = 500 * kKiB;
  profile.revisit_bytes = 200 * kKiB;
  profile.cache_first_bytes = 2 * kMiB;
  profile.cache_revisit_bytes = 512 * kKiB;
  profile.plants_evercookie = true;
  profile.memory_dirty_bytes = 4 * kMiB;
  return profile;
}

TEST(StainingTest, EvercookieSurvivesClearCookies) {
  Testbed bed(1);
  Website stainer(bed.sim(), StainerProfile());
  Nym* nym = bed.CreateNymBlocking("victim");
  ASSERT_TRUE(bed.VisitBlocking(nym, stainer).ok());
  std::string stain = stainer.tracker_log()[0].evercookie;
  ASSERT_FALSE(stain.empty());
  std::string cookie = stainer.tracker_log()[0].cookie;

  ASSERT_TRUE(nym->browser()->ClearCookies().ok());
  EXPECT_FALSE(nym->browser()->HasCookieFor("tracker.example.com"));
  EXPECT_TRUE(nym->browser()->HasEvercookie("tracker.example.com"));

  ASSERT_TRUE(bed.VisitBlocking(nym, stainer).ok());
  // Fresh cookie, same stain: the user is still linked.
  EXPECT_NE(stainer.tracker_log()[1].cookie, cookie);
  EXPECT_EQ(stainer.tracker_log()[1].evercookie, stain);
  EXPECT_EQ(stainer.DistinctEvercookies(), 1u);
}

TEST(StainingTest, EvercookieRepairsDeletedCopy) {
  Testbed bed(2);
  Website stainer(bed.sim(), StainerProfile());
  Nym* nym = bed.CreateNymBlocking("victim");
  ASSERT_TRUE(bed.VisitBlocking(nym, stainer).ok());
  std::string stain = stainer.tracker_log()[0].evercookie;
  // The user deletes the Flash LSO copy; the cache copy restores it.
  ASSERT_TRUE(nym->anon_vm()
                  ->disk()
                  .fs()
                  .Unlink("/home/user/.config/chromium/flash_lso/tracker.example.com")
                  .ok());
  ASSERT_TRUE(bed.VisitBlocking(nym, stainer).ok());
  EXPECT_EQ(stainer.tracker_log()[1].evercookie, stain);
  EXPECT_TRUE(nym->anon_vm()->disk().fs().Exists(
      "/home/user/.config/chromium/flash_lso/tracker.example.com"));
}

TEST(StainingTest, PersistentNymCarriesStainAcrossSaveRestore) {
  Testbed bed(3);
  Website stainer(bed.sim(), StainerProfile());
  ASSERT_TRUE(bed.cloud().CreateAccount("u", "cp").ok());
  Nym* nym = bed.CreateNymBlocking("stained");
  ASSERT_TRUE(bed.VisitBlocking(nym, stainer).ok());
  ASSERT_TRUE(bed.SaveBlocking(nym, "u", "cp", "np").ok());
  ASSERT_TRUE(bed.manager().TerminateNym(nym).ok());

  auto restored = bed.LoadBlocking("stained", "u", "cp", "np");
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE(bed.VisitBlocking(*restored, stainer).ok());
  EXPECT_EQ(stainer.DistinctEvercookies(), 1u);  // the §3.5 persistent-mode risk
}

TEST(StainingTest, EphemeralNymsAreUnstainable) {
  Testbed bed(4);
  Website stainer(bed.sim(), StainerProfile());
  for (int session = 0; session < 3; ++session) {
    Nym* nym = bed.CreateNymBlocking("fresh-" + std::to_string(session));
    ASSERT_TRUE(bed.VisitBlocking(nym, stainer).ok());
    ASSERT_TRUE(bed.manager().TerminateNym(nym).ok());
  }
  EXPECT_EQ(stainer.DistinctEvercookies(), 3u);
}

// ------------------------------------------------------- Lifecycle / failure

TEST(LifecycleTest, TerminateDuringBootIsSafe) {
  Testbed bed(5);
  bool callback_fired = false;
  bed.manager().CreateNym("doomed", {}, [&](Result<Nym*>, NymStartupReport) {
    callback_fired = true;
  });
  // Let the boot get underway, then kill it mid-flight.
  bed.sim().RunFor(Seconds(2));
  Nym* nym = bed.manager().FindNym("doomed");
  ASSERT_NE(nym, nullptr);
  EXPECT_EQ(nym->anon_vm()->state(), VmState::kBooting);
  ASSERT_TRUE(bed.manager().TerminateNym(nym).ok());
  bed.sim().loop().RunUntilIdle();
  EXPECT_FALSE(callback_fired);  // the boot never completed
  EXPECT_EQ(bed.manager().nyms().size(), 0u);
  EXPECT_EQ(bed.host().vm_count(), 0u);
  // The host is fully usable afterwards.
  Nym* next = bed.CreateNymBlocking("after");
  EXPECT_TRUE(next->anonymizer()->ready());
}

TEST(LifecycleTest, HostRamExhaustionFailsCleanly) {
  Testbed bed(6);
  // 16 GiB host, 1.07 GiB baseline, 656 MiB/nymbox -> at most 23 nyms.
  std::vector<Nym*> created;
  Status failure = OkStatus();
  for (int i = 0; i < 40 && failure.ok(); ++i) {
    bool done = false;
    bed.manager().CreateNym("bulk-" + std::to_string(i), {},
                            [&](Result<Nym*> nym, NymStartupReport) {
                              if (nym.ok()) {
                                created.push_back(*nym);
                              } else {
                                failure = nym.status();
                              }
                              done = true;
                            });
    bed.sim().RunUntil([&] { return done; });
  }
  EXPECT_EQ(failure.code(), StatusCode::kResourceExhausted);
  EXPECT_GE(created.size(), 20u);
  EXPECT_LE(created.size(), 23u);
  // No half-created nym remains and the host stays consistent.
  EXPECT_EQ(bed.manager().nyms().size(), created.size());
  EXPECT_EQ(bed.host().vm_count(), 2 * created.size());
  // Freeing one nym makes room again.
  ASSERT_TRUE(bed.manager().TerminateNym(created.back()).ok());
  EXPECT_NE(bed.CreateNymBlocking("one-more"), nullptr);
}

TEST(LifecycleTest, WrongCloudAccountPasswordFailsLoad) {
  Testbed bed(7);
  ASSERT_TRUE(bed.cloud().CreateAccount("acct", "right").ok());
  Nym* nym = bed.CreateNymBlocking("cloudy");
  ASSERT_TRUE(bed.SaveBlocking(nym, "acct", "right", "np").ok());
  ASSERT_TRUE(bed.manager().TerminateNym(nym).ok());
  Result<Nym*> loaded = InternalError("pending");
  bool done = false;
  bed.manager().LoadNymFromCloud("cloudy", bed.cloud(), "acct", "WRONG", "np", {},
                                 [&](Result<Nym*> result, NymStartupReport) {
                                   loaded = std::move(result);
                                   done = true;
                                 });
  bed.sim().RunUntil([&] { return done; });
  EXPECT_EQ(loaded.status().code(), StatusCode::kUnauthenticated);
  EXPECT_EQ(bed.manager().nyms().size(), 0u);  // loader cleaned up
}

TEST(LifecycleTest, EightConcurrentNymsBrowseAndTearDownClean) {
  Testbed bed(8);
  PacketCapture capture;
  bed.host().uplink()->AttachCapture(&capture);
  bed.host().ksm().Start(Seconds(2));

  // Launch all eight concurrently (not sequentially as in fig3).
  std::vector<Nym*> nyms(8, nullptr);
  int ready = 0;
  for (int i = 0; i < 8; ++i) {
    bed.manager().CreateNym("par-" + std::to_string(i), {},
                            [&nyms, &ready, i](Result<Nym*> nym, NymStartupReport) {
                              NYMIX_CHECK(nym.ok());
                              nyms[static_cast<size_t>(i)] = *nym;
                              ++ready;
                            });
  }
  bed.sim().RunUntil([&] { return ready == 8; });

  // Everyone browses a different site at once.
  auto sites = bed.sites().all();
  int visited = 0;
  for (int i = 0; i < 8; ++i) {
    nyms[static_cast<size_t>(i)]->browser()->Visit(
        *sites[static_cast<size_t>(i)], [&](Result<SimTime> r) {
          NYMIX_CHECK(r.ok());
          ++visited;
        });
  }
  bed.sim().RunUntil([&] { return visited == 8; });

  // Each site saw exactly one visit, from an exit, never from the host.
  for (Website* site : sites) {
    ASSERT_EQ(site->visit_count(), 1u);
    EXPECT_NE(site->tracker_log()[0].observed_source, bed.host().public_ip());
  }
  EXPECT_TRUE(AuditUplinkCapture(capture).Passed());

  for (Nym* nym : nyms) {
    ASSERT_TRUE(bed.manager().TerminateNym(nym).ok());
  }
  bed.host().ksm().ScanNow();
  EXPECT_EQ(bed.host().UsedMemoryBytes(), kHostBaselineBytes);
}

TEST(LifecycleTest, SaveWhileSecondNymBrowsesDoesNotInterfere) {
  Testbed bed(9);
  ASSERT_TRUE(bed.cloud().CreateAccount("u", "cp").ok());
  Nym* saver = bed.CreateNymBlocking("saver");
  Nym* browser_nym = bed.CreateNymBlocking("browser");
  ASSERT_TRUE(bed.VisitBlocking(saver, bed.sites().ByName("Gmail")).ok());

  bool save_done = false, visit_done = false;
  Result<SaveReceipt> receipt = InternalError("pending");
  bed.manager().SaveNymToCloud(*saver, bed.cloud(), "u", "cp", "np",
                               [&](Result<SaveReceipt> r) {
                                 receipt = std::move(r);
                                 save_done = true;
                               });
  browser_nym->browser()->Visit(bed.sites().ByName("BBC"), [&](Result<SimTime> r) {
    NYMIX_CHECK(r.ok());
    visit_done = true;
  });
  bed.sim().RunUntil([&] { return save_done && visit_done; });
  ASSERT_TRUE(receipt.ok());
  // The saver was paused during archiving but resumed.
  EXPECT_EQ(saver->anon_vm()->state(), VmState::kRunning);
  EXPECT_EQ(bed.sites().ByName("BBC").visit_count(), 1u);
}

// ------------------------------------------------------- UnionFs model check

// Randomized differential test: drive a UnionFs and a plain map-of-paths
// reference model with the same operation stream; views must agree.
class UnionFsModelCheck : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UnionFsModelCheck, MatchesReferenceModel) {
  Prng prng(GetParam());
  auto base = std::make_shared<MemFs>();
  std::map<std::string, std::string> model;  // path -> content
  std::vector<std::string> names;
  for (int i = 0; i < 8; ++i) {
    std::string path = "/f" + std::to_string(i);
    std::string content = "base-" + std::to_string(i);
    NYMIX_CHECK(base->WriteFile(path, Blob::FromString(content)).ok());
    model[path] = content;
    names.push_back(path);
  }
  auto writable = std::make_shared<MemFs>();
  UnionFs fs({base}, writable);

  for (int step = 0; step < 400; ++step) {
    const std::string& path = names[prng.NextBelow(names.size())];
    switch (prng.NextBelow(3)) {
      case 0: {  // write
        std::string content = "v" + std::to_string(step);
        ASSERT_TRUE(fs.WriteFile(path, Blob::FromString(content)).ok());
        model[path] = content;
        break;
      }
      case 1: {  // unlink
        Status status = fs.Unlink(path);
        if (model.count(path) > 0) {
          ASSERT_TRUE(status.ok()) << path;
          model.erase(path);
        } else {
          ASSERT_FALSE(status.ok()) << path;
        }
        break;
      }
      case 2: {  // read + existence check
        auto blob = fs.ReadFile(path);
        if (model.count(path) > 0) {
          ASSERT_TRUE(blob.ok()) << path;
          EXPECT_EQ(StringFromBytes(blob->Materialize()), model[path]);
        } else {
          EXPECT_FALSE(blob.ok()) << path;
        }
        EXPECT_EQ(fs.Exists(path), model.count(path) > 0);
        break;
      }
    }
  }
  // Final directory listing matches the model exactly.
  auto entries = fs.List("/");
  ASSERT_TRUE(entries.ok());
  std::map<std::string, bool> listed;
  for (const auto& entry : *entries) {
    listed[entry.name] = true;
  }
  for (const auto& [path, content] : model) {
    (void)content;
    EXPECT_TRUE(listed.count(path.substr(1)) > 0) << path;
  }
  EXPECT_EQ(listed.size(), model.size());
  // And the base layer never changed.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(StringFromBytes(base->ReadFile("/f" + std::to_string(i))->Materialize()),
              "base-" + std::to_string(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnionFsModelCheck, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ------------------------------------------------------- Flow conservation

class FlowConservation : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FlowConservation, CompletionTimesRespectCapacity) {
  Simulation sim(GetParam());
  Link* bottleneck = sim.CreateLink("bn", Millis(10), 10'000'000);  // 1.25 MB/s
  Prng prng(GetParam() * 77);

  uint64_t total_bytes = 0;
  SimTime last_completion = 0;
  int completed = 0;
  const int kFlows = 12;
  for (int i = 0; i < kFlows; ++i) {
    uint64_t bytes = 100'000 + prng.NextBelow(2'000'000);
    total_bytes += bytes;
    SimDuration start_delay = static_cast<SimDuration>(prng.NextBelow(Seconds(2)));
    sim.loop().ScheduleAfter(start_delay, [&sim, bottleneck, bytes, &completed,
                                           &last_completion] {
      sim.flows().StartFlow(Route::Through({bottleneck}), bytes, 1.0, /*stall_timeout=*/0,
                            [&completed, &last_completion](Result<SimTime> t) {
                              ++completed;
                              last_completion = std::max(last_completion, *t);
                            });
    });
  }
  sim.loop().RunUntilIdle();
  ASSERT_EQ(completed, kFlows);
  // Conservation: the link cannot have moved bytes faster than capacity.
  double capacity_bytes_per_s = 10'000'000 / 8.0;
  double min_seconds = static_cast<double>(total_bytes) / capacity_bytes_per_s;
  EXPECT_GE(ToSeconds(last_completion) + 1e-6, min_seconds);
  // And fair sharing cannot be pathologically slow either: everything done
  // within (transfer + staggered starts + rtt) plus small scheduling slack.
  EXPECT_LE(ToSeconds(last_completion), min_seconds + 2.0 + 0.5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowConservation, ::testing::Values(11, 22, 33, 44, 55));

// ------------------------------------------------------- EventLoop stress

TEST(EventLoopStressTest, RandomScheduleCancelKeepsOrder) {
  EventLoop loop;
  Prng prng(99);
  std::vector<SimTime> fired;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 500; ++i) {
    SimDuration when = static_cast<SimDuration>(prng.NextBelow(Seconds(10)));
    ids.push_back(loop.ScheduleAfter(when, [&fired, &loop] { fired.push_back(loop.now()); }));
  }
  // Cancel a random third.
  size_t cancelled = 0;
  for (uint64_t id : ids) {
    if (prng.NextBelow(3) == 0 && loop.Cancel(id)) {
      ++cancelled;
    }
  }
  loop.RunUntilIdle();
  EXPECT_EQ(fired.size(), ids.size() - cancelled);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_EQ(loop.pending_events(), 0u);
}

}  // namespace
}  // namespace nymix
