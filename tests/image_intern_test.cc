// The interned, immutable distribution image: one object per (name, seed,
// size) per process, shared read-only by every caller and thread, with a
// Merkle verdict fixed at construction that must equal the full check.
// Labeled `parallel` so CI's TSan job runs the concurrent-intern case.
#include <gtest/gtest.h>

#include "src/unionfs/disk_image.h"
#include "src/util/thread_pool.h"

namespace nymix {
namespace {

std::string Hostname(const BaseImage& image) {
  return StringFromBytes(image.fs()->ReadFile("/etc/hostname")->Materialize());
}

TEST(ImageInternTest, EqualKeysReturnOneImage) {
  auto a = BaseImage::CreateDistribution("intern", 3, 1 * kMiB);
  auto b = BaseImage::CreateDistribution("intern", 3, 1 * kMiB);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->contents().get(), b->contents().get());
}

TEST(ImageInternTest, EachKeyFieldSelectsADifferentImage) {
  auto base = BaseImage::CreateDistribution("intern", 3, 1 * kMiB);
  auto renamed = BaseImage::CreateDistribution("intern-b", 3, 1 * kMiB);
  auto reseeded = BaseImage::CreateDistribution("intern", 4, 1 * kMiB);
  auto resized = BaseImage::CreateDistribution("intern", 3, 2 * kMiB);
  EXPECT_NE(renamed.get(), base.get());
  EXPECT_NE(reseeded.get(), base.get());
  EXPECT_NE(resized.get(), base.get());
  // Each is the image its own key describes.
  EXPECT_EQ(Hostname(*base), "intern");
  EXPECT_EQ(Hostname(*renamed), "intern-b");
  EXPECT_NE(reseeded->merkle_root(), base->merkle_root());
  EXPECT_EQ(resized->block_count(), 2 * base->block_count());
}

TEST(ImageInternTest, ConcurrentCallersShareOnePointer) {
  constexpr size_t kCallers = 8;
  ThreadPool pool(static_cast<int>(kCallers));
  std::vector<std::shared_ptr<const BaseImage>> images(kCallers);
  // A key no other test uses, so the one build happens under contention.
  pool.RunIndexed(kCallers, [&](size_t i) {
    images[i] = BaseImage::CreateDistribution("intern-concurrent", 11, 4 * kMiB);
  });
  for (const auto& image : images) {
    ASSERT_NE(image, nullptr);
    EXPECT_EQ(image.get(), images.front().get());
  }
  EXPECT_TRUE(images.front()->verified());
  // Readers on every thread see the same finished image. One int per
  // reader: std::vector<bool> packs bits, so its writes would race.
  std::vector<int> verdicts(kCallers);
  pool.RunIndexed(kCallers, [&](size_t i) { verdicts[i] = images[i]->VerifyAllBlocks(); });
  for (int verdict : verdicts) {
    EXPECT_TRUE(verdict);
  }
}

TEST(ImageInternTest, TamperedCopyIsNotInterned) {
  auto image = BaseImage::CreateDistribution("intern", 5, 1 * kMiB);
  auto tampered = image->TamperedCopy(7, 999);
  EXPECT_NE(tampered.get(), image.get());
  EXPECT_EQ(tampered->merkle_root(), image->merkle_root());  // published root kept
  EXPECT_NE(tampered->contents()->identity(), image->contents()->identity());
  EXPECT_NE(tampered->BlockContentId(7), image->BlockContentId(7));
  EXPECT_EQ(BaseImage::CreateDistribution("intern", 5, 1 * kMiB).get(), image.get());
  EXPECT_TRUE(image->verified());
}

TEST(ImageInternTest, VerdictEqualsFullCheck) {
  auto fresh = BaseImage::CreateDistribution("intern", 6, 1 * kMiB);
  EXPECT_TRUE(fresh->verified());
  EXPECT_EQ(fresh->verified(), fresh->VerifyAllBlocks());

  auto tampered = fresh->TamperedCopy(2, 999);
  EXPECT_FALSE(tampered->verified());
  EXPECT_EQ(tampered->verified(), tampered->VerifyAllBlocks());
  auto twice = tampered->TamperedCopy(9, 1000);
  EXPECT_FALSE(twice->verified());
  EXPECT_EQ(twice->verified(), twice->VerifyAllBlocks());

  auto restored = BaseImage::CreateDistributionFromCheckpoint(
      fresh->name(), fresh->seed(), fresh->size_bytes(), fresh->block_digests(), fresh->merkle());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_NE(restored->get(), fresh.get());
  EXPECT_TRUE((*restored)->verified());
  EXPECT_EQ((*restored)->verified(), (*restored)->VerifyAllBlocks());
  EXPECT_EQ((*restored)->contents()->identity(), fresh->contents()->identity());

  // A checkpoint whose digests drifted from its tree away from the
  // spot-checked first and last leaves restores, but does not verify.
  std::vector<Sha256Digest> drifted = fresh->block_digests();
  drifted[drifted.size() / 2] = drifted[1];
  auto bad = BaseImage::CreateDistributionFromCheckpoint(fresh->name(), fresh->seed(),
                                                         fresh->size_bytes(), std::move(drifted),
                                                         fresh->merkle());
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  EXPECT_FALSE((*bad)->verified());
  EXPECT_EQ((*bad)->verified(), (*bad)->VerifyAllBlocks());
}

}  // namespace
}  // namespace nymix
