// Shape tests for the evaluation harnesses: miniature versions of each
// figure/table asserting the paper's qualitative claims, so a regression
// that would bend a curve fails here before anyone reads bench output.
// Also pins end-to-end determinism: equal seeds must reproduce equal
// results bit-for-bit.
#include <gtest/gtest.h>

#include "src/core/testbed.h"

namespace nymix {
namespace {

// ---------------------------------------------------------------- Fig. 3 shape

TEST(ExperimentShapeTest, MemoryScalesLinearlyAndKsmSaves) {
  Testbed bed(1);
  bed.host().ksm().Start(Seconds(2));
  std::vector<uint64_t> used;
  for (int n = 0; n < 3; ++n) {
    Nym* nym = bed.CreateNymBlocking("m-" + std::to_string(n));
    ASSERT_TRUE(bed.VisitBlocking(nym, *bed.sites().all()[static_cast<size_t>(n)]).ok());
    bed.host().ksm().ScanNow();
    used.push_back(bed.host().UsedMemoryBytes());
  }
  // Increments are per-nymbox-sized and roughly equal (±15%).
  uint64_t inc1 = used[1] - used[0];
  uint64_t inc2 = used[2] - used[1];
  EXPECT_GT(inc1, 400 * kMiB);
  EXPECT_LT(inc1, 700 * kMiB);
  EXPECT_NEAR(static_cast<double>(inc2), static_cast<double>(inc1), 0.15 * inc1);
  // KSM produces real savings with multiple VMs up.
  EXPECT_GT(bed.host().ksm().stats().bytes_saved(), 20 * kMiB);
}

// ---------------------------------------------------------------- Fig. 4 shape

TEST(ExperimentShapeTest, PeacekeeperActualBeatsExpectedPastCoreCount) {
  Testbed bed(2);
  double single = 0;
  Peacekeeper::Run(bed.host(), true, [&](double score) { single = score; });
  bed.sim().loop().RunUntilIdle();
  std::vector<double> scores;
  for (int i = 0; i < 6; ++i) {
    Peacekeeper::Run(bed.host(), true, [&](double score) { scores.push_back(score); });
  }
  bed.sim().RunUntil([&] { return scores.size() == 6; });
  double avg = 0;
  for (double score : scores) {
    avg += score;
  }
  avg /= 6;
  double expected = Peacekeeper::ExpectedScore(single, 6, kHostCores);
  EXPECT_GT(avg, expected * 1.01);
  EXPECT_LT(avg, single);
}

// ---------------------------------------------------------------- Fig. 5 shape

TEST(ExperimentShapeTest, DownloadsScaleLinearlyWithFixedTorOverhead) {
  auto run = [](int nyms) {
    Testbed bed(40 + nyms);
    std::vector<Nym*> all;
    for (int i = 0; i < nyms; ++i) {
      all.push_back(bed.CreateNymBlocking("d-" + std::to_string(i)));
    }
    std::vector<double> times;
    for (Nym* nym : all) {
      DownloadKernel(*nym->anonymizer(), bed.mirror(), bed.sim(), [&](Result<double> r) {
        times.push_back(*r);
      });
    }
    bed.sim().RunUntil([&] { return times.size() == static_cast<size_t>(nyms); });
    double worst = 0;
    for (double t : times) {
      worst = std::max(worst, t);
    }
    return worst;
  };
  double one = run(1);
  double three = run(3);
  double ideal_one = kLinuxKernelTarballBytes * 8.0 / 10'000'000;
  // Overhead within 10-15% of ideal, and 3 nyms cost ~3x one.
  EXPECT_GT(one, ideal_one * 1.08);
  EXPECT_LT(one, ideal_one * 1.16);
  EXPECT_NEAR(three, 3 * one, 0.05 * three);
}

// ---------------------------------------------------------------- Fig. 6 shape

TEST(ExperimentShapeTest, ArchiveSizesGrowMonotonically) {
  Testbed bed(4);
  ASSERT_TRUE(bed.cloud().CreateAccount("u", "cp").ok());
  Website& site = bed.sites().ByName("Facebook");
  Nym* nym = bed.CreateNymBlocking("grow");
  std::vector<uint64_t> sizes;
  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_TRUE(bed.VisitBlocking(nym, site).ok());
    auto receipt = bed.SaveBlocking(nym, "u", "cp", "np");
    ASSERT_TRUE(receipt.ok());
    sizes.push_back(receipt->logical_size);
    ASSERT_TRUE(bed.manager().TerminateNym(nym).ok());
    auto restored = bed.LoadBlocking("grow", "u", "cp", "np");
    ASSERT_TRUE(restored.ok());
    nym = *restored;
  }
  EXPECT_LT(sizes[0], sizes[1]);
  EXPECT_LT(sizes[1], sizes[2]);
  // Revisit growth is much smaller than the initial payload.
  EXPECT_LT(sizes[2] - sizes[1], sizes[0]);
}

// ---------------------------------------------------------------- Fig. 7 shape

TEST(ExperimentShapeTest, WarmTorBeatsColdButLoadsPayEphemeralPhase) {
  Testbed bed(5);
  ASSERT_TRUE(bed.cloud().CreateAccount("u", "cp").ok());
  NymStartupReport fresh;
  Nym* nym = bed.CreateNymBlocking("f", {}, &fresh);
  ASSERT_TRUE(bed.SaveBlocking(nym, "u", "cp", "np").ok());
  ASSERT_TRUE(bed.manager().TerminateNym(nym).ok());
  NymStartupReport restored;
  auto loaded = bed.LoadBlocking("f", "u", "cp", "np", {}, &restored);
  ASSERT_TRUE(loaded.ok());
  EXPECT_LT(restored.start_anonymizer, fresh.start_anonymizer / 2);
  EXPECT_GT(restored.ephemeral_nym, Seconds(5));
  EXPECT_EQ(fresh.ephemeral_nym, 0);
  EXPECT_GT(restored.Total(), fresh.Total());  // the ephemeral phase dominates
}

// ---------------------------------------------------------------- Determinism

TEST(DeterminismTest, SameSeedReproducesExactly) {
  auto run = []() {
    Testbed bed(777);
    NymStartupReport report;
    Nym* nym = bed.CreateNymBlocking("det", {}, &report);
    NYMIX_CHECK(bed.VisitBlocking(nym, bed.sites().ByName("Gmail")).ok());
    NYMIX_CHECK(bed.cloud().CreateAccount("u", "cp").ok());
    auto receipt = bed.SaveBlocking(nym, "u", "cp", "np");
    NYMIX_CHECK(receipt.ok());
    struct Outcome {
      SimDuration total;
      uint64_t archive;
      std::string cookie;
      size_t guard;
      SimTime end;
    };
    return Outcome{report.Total(), receipt->logical_size,
                   nym->browser()->CookieFor("mail.google.com"),
                   *static_cast<TorClient*>(nym->anonymizer())->entry_guard_index(),
                   bed.sim().now()};
  };
  auto first = run();
  auto second = run();
  EXPECT_EQ(first.total, second.total);
  EXPECT_EQ(first.archive, second.archive);
  EXPECT_EQ(first.cookie, second.cookie);
  EXPECT_EQ(first.guard, second.guard);
  EXPECT_EQ(first.end, second.end);
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  auto cookie_for = [](uint64_t seed) {
    Testbed bed(seed);
    Nym* nym = bed.CreateNymBlocking("det");
    NYMIX_CHECK(bed.VisitBlocking(nym, bed.sites().ByName("Gmail")).ok());
    return nym->browser()->CookieFor("mail.google.com");
  };
  EXPECT_NE(cookie_for(1), cookie_for(2));
}

}  // namespace
}  // namespace nymix
