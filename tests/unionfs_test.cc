#include <gtest/gtest.h>

#include "src/unionfs/disk_image.h"
#include "src/unionfs/mem_fs.h"
#include "src/unionfs/path.h"
#include "src/unionfs/serialize.h"
#include "src/unionfs/union_fs.h"

namespace nymix {
namespace {

// ---------------------------------------------------------------- Path

TEST(PathTest, SplitAndJoin) {
  auto parts = SplitPath("/etc/rc.local");
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ(*parts, (std::vector<std::string>{"etc", "rc.local"}));
  EXPECT_EQ(JoinPath(*parts), "/etc/rc.local");
  EXPECT_EQ(JoinPath({}), "/");
}

TEST(PathTest, RootSplitsEmpty) {
  auto parts = SplitPath("/");
  ASSERT_TRUE(parts.ok());
  EXPECT_TRUE(parts->empty());
}

TEST(PathTest, RejectsBadPaths) {
  EXPECT_FALSE(SplitPath("").ok());
  EXPECT_FALSE(SplitPath("relative/path").ok());
  EXPECT_FALSE(SplitPath("//double").ok());
  EXPECT_FALSE(SplitPath("/a/../b").ok());
  EXPECT_FALSE(SplitPath("/a/./b").ok());
}

TEST(PathTest, ParentAndBasename) {
  EXPECT_EQ(ParentPath("/a/b/c"), "/a/b");
  EXPECT_EQ(ParentPath("/a"), "/");
  EXPECT_EQ(BasenameOf("/a/b"), "b");
  EXPECT_EQ(BasenameOf("/"), "");
}

// ---------------------------------------------------------------- MemFs

TEST(MemFsTest, WriteReadRoundTrip) {
  MemFs fs;
  ASSERT_TRUE(fs.WriteFile("/home/user/note.txt", Blob::FromString("hi")).ok());
  auto blob = fs.ReadFile("/home/user/note.txt");
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(StringFromBytes(blob->Materialize()), "hi");
  EXPECT_TRUE(fs.IsDirectory("/home/user"));
  EXPECT_EQ(fs.FileCount(), 1u);
}

TEST(MemFsTest, OverwriteUpdatesAccounting) {
  MemFs fs;
  ASSERT_TRUE(fs.WriteFile("/f", Blob::Synthetic(100, 1)).ok());
  EXPECT_EQ(fs.TotalBytes(), 100u);
  ASSERT_TRUE(fs.WriteFile("/f", Blob::Synthetic(40, 2)).ok());
  EXPECT_EQ(fs.TotalBytes(), 40u);
  EXPECT_EQ(fs.FileCount(), 1u);
}

TEST(MemFsTest, MkdirSemantics) {
  MemFs fs;
  EXPECT_FALSE(fs.Mkdir("/a/b/c").ok());             // parent missing
  EXPECT_TRUE(fs.Mkdir("/a/b/c", true).ok());        // recursive
  EXPECT_TRUE(fs.Mkdir("/a/b/c", true).ok());        // idempotent with recursive
  EXPECT_FALSE(fs.Mkdir("/a/b/c").ok());             // already exists
  ASSERT_TRUE(fs.WriteFile("/file", Blob::FromString("x")).ok());
  EXPECT_FALSE(fs.Mkdir("/file").ok());              // file in the way
}

TEST(MemFsTest, UnlinkAndRemove) {
  MemFs fs;
  ASSERT_TRUE(fs.WriteFile("/d/one", Blob::Synthetic(10, 1)).ok());
  ASSERT_TRUE(fs.WriteFile("/d/two", Blob::Synthetic(20, 2)).ok());
  EXPECT_FALSE(fs.Unlink("/d").ok());                // directory
  EXPECT_TRUE(fs.Unlink("/d/one").ok());
  EXPECT_FALSE(fs.Unlink("/d/one").ok());
  EXPECT_FALSE(fs.Remove("/d").ok());                // not empty
  EXPECT_TRUE(fs.Remove("/d", true).ok());
  EXPECT_EQ(fs.TotalBytes(), 0u);
  EXPECT_EQ(fs.FileCount(), 0u);
}

TEST(MemFsTest, RenameMovesSubtree) {
  MemFs fs;
  ASSERT_TRUE(fs.WriteFile("/old/a", Blob::FromString("1")).ok());
  ASSERT_TRUE(fs.WriteFile("/old/b", Blob::FromString("2")).ok());
  ASSERT_TRUE(fs.Rename("/old", "/new/place").ok());
  EXPECT_FALSE(fs.Exists("/old"));
  EXPECT_TRUE(fs.Exists("/new/place/a"));
  EXPECT_TRUE(fs.Exists("/new/place/b"));
  EXPECT_FALSE(fs.Rename("/missing", "/x").ok());
  ASSERT_TRUE(fs.WriteFile("/target", Blob::FromString("t")).ok());
  EXPECT_FALSE(fs.Rename("/new/place/a", "/target").ok());  // destination exists
}

TEST(MemFsTest, ListSortedWithSizes) {
  MemFs fs;
  ASSERT_TRUE(fs.WriteFile("/dir/banana", Blob::Synthetic(5, 1)).ok());
  ASSERT_TRUE(fs.WriteFile("/dir/apple", Blob::Synthetic(3, 2)).ok());
  ASSERT_TRUE(fs.Mkdir("/dir/sub").ok());
  auto entries = fs.List("/dir");
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 3u);
  EXPECT_EQ((*entries)[0].name, "apple");
  EXPECT_EQ((*entries)[0].size, 3u);
  EXPECT_EQ((*entries)[1].name, "banana");
  EXPECT_TRUE((*entries)[2].is_directory);
}

TEST(MemFsTest, CloneIsDeep) {
  MemFs fs;
  ASSERT_TRUE(fs.WriteFile("/a", Blob::FromString("orig")).ok());
  auto copy = fs.Clone();
  ASSERT_TRUE(copy->WriteFile("/a", Blob::FromString("changed")).ok());
  EXPECT_EQ(StringFromBytes(fs.ReadFile("/a")->Materialize()), "orig");
  EXPECT_EQ(copy->TotalBytes(), 7u);
}

TEST(MemFsTest, WipeAllClearsEverything) {
  MemFs fs;
  ASSERT_TRUE(fs.WriteFile("/secret/cookie", Blob::Synthetic(1000, 3)).ok());
  fs.WipeAll();
  EXPECT_FALSE(fs.Exists("/secret/cookie"));
  EXPECT_EQ(fs.TotalBytes(), 0u);
  EXPECT_EQ(fs.FileCount(), 0u);
}

TEST(MemFsTest, ForEachFileVisitsAll) {
  MemFs fs;
  ASSERT_TRUE(fs.WriteFile("/a/x", Blob::Synthetic(1, 1)).ok());
  ASSERT_TRUE(fs.WriteFile("/a/y", Blob::Synthetic(2, 2)).ok());
  ASSERT_TRUE(fs.WriteFile("/b", Blob::Synthetic(3, 3)).ok());
  std::vector<std::string> paths;
  fs.ForEachFile([&](const std::string& path, const Blob&) { paths.push_back(path); });
  EXPECT_EQ(paths, (std::vector<std::string>{"/a/x", "/a/y", "/b"}));
}

// ---------------------------------------------------------------- UnionFs

struct UnionFixture {
  UnionFixture() {
    auto base_fs = std::make_shared<MemFs>();
    NYMIX_CHECK(base_fs->WriteFile("/etc/rc.local", Blob::FromString("base-rc")).ok());
    NYMIX_CHECK(base_fs->WriteFile("/etc/hosts", Blob::FromString("hosts")).ok());
    NYMIX_CHECK(base_fs->WriteFile("/usr/bin/tor", Blob::Synthetic(1000, 9)).ok());
    base = base_fs;

    auto config_fs = std::make_shared<MemFs>();
    NYMIX_CHECK(config_fs->WriteFile("/etc/rc.local", Blob::FromString("commvm-rc")).ok());
    config = config_fs;

    writable = std::make_shared<MemFs>();
    fs = std::make_unique<UnionFs>(
        std::vector<std::shared_ptr<const MemFs>>{base, config}, writable);
  }

  std::shared_ptr<const MemFs> base;
  std::shared_ptr<const MemFs> config;
  std::shared_ptr<MemFs> writable;
  std::unique_ptr<UnionFs> fs;
};

TEST(UnionFsTest, ConfigLayerMasksBase) {
  UnionFixture fixture;
  EXPECT_EQ(StringFromBytes(fixture.fs->ReadFile("/etc/rc.local")->Materialize()), "commvm-rc");
  EXPECT_EQ(StringFromBytes(fixture.fs->ReadFile("/etc/hosts")->Materialize()), "hosts");
}

TEST(UnionFsTest, WritesGoToWritableLayerOnly) {
  UnionFixture fixture;
  ASSERT_TRUE(fixture.fs->WriteFile("/etc/hosts", Blob::FromString("modified")).ok());
  EXPECT_EQ(StringFromBytes(fixture.fs->ReadFile("/etc/hosts")->Materialize()), "modified");
  // Lower layers untouched (copy-on-write).
  EXPECT_EQ(StringFromBytes(fixture.base->ReadFile("/etc/hosts")->Materialize()), "hosts");
  EXPECT_EQ(fixture.fs->WritableBytes(), 8u);
}

TEST(UnionFsTest, UnlinkLowerCreatesWhiteout) {
  UnionFixture fixture;
  ASSERT_TRUE(fixture.fs->Unlink("/etc/hosts").ok());
  EXPECT_FALSE(fixture.fs->Exists("/etc/hosts"));
  EXPECT_TRUE(fixture.fs->IsWhiteout("/etc/hosts"));
  EXPECT_FALSE(fixture.fs->ReadFile("/etc/hosts").ok());
  // Base still has the file.
  EXPECT_TRUE(fixture.base->Exists("/etc/hosts"));
}

TEST(UnionFsTest, WriteAfterWhiteoutResurrects) {
  UnionFixture fixture;
  ASSERT_TRUE(fixture.fs->Unlink("/etc/hosts").ok());
  ASSERT_TRUE(fixture.fs->WriteFile("/etc/hosts", Blob::FromString("new")).ok());
  EXPECT_TRUE(fixture.fs->Exists("/etc/hosts"));
  EXPECT_EQ(StringFromBytes(fixture.fs->ReadFile("/etc/hosts")->Materialize()), "new");
  EXPECT_FALSE(fixture.fs->IsWhiteout("/etc/hosts"));
}

TEST(UnionFsTest, UnlinkWritableOnlyFileLeavesNoWhiteout) {
  UnionFixture fixture;
  ASSERT_TRUE(fixture.fs->WriteFile("/tmp/scratch", Blob::FromString("x")).ok());
  ASSERT_TRUE(fixture.fs->Unlink("/tmp/scratch").ok());
  EXPECT_FALSE(fixture.fs->Exists("/tmp/scratch"));
  EXPECT_FALSE(fixture.fs->IsWhiteout("/tmp/scratch"));
}

TEST(UnionFsTest, UnlinkMissingFails) {
  UnionFixture fixture;
  EXPECT_FALSE(fixture.fs->Unlink("/nope").ok());
}

TEST(UnionFsTest, ListMergesLayersAndHidesWhiteouts) {
  UnionFixture fixture;
  ASSERT_TRUE(fixture.fs->WriteFile("/etc/new.conf", Blob::FromString("n")).ok());
  ASSERT_TRUE(fixture.fs->Unlink("/etc/hosts").ok());
  auto entries = fixture.fs->List("/etc");
  ASSERT_TRUE(entries.ok());
  std::vector<std::string> names;
  for (const auto& entry : *entries) {
    names.push_back(entry.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"new.conf", "rc.local"}));
}

TEST(UnionFsTest, DiscardWritableRestoresPristineView) {
  UnionFixture fixture;
  ASSERT_TRUE(fixture.fs->WriteFile("/etc/hosts", Blob::FromString("stained")).ok());
  ASSERT_TRUE(fixture.fs->Unlink("/usr/bin/tor").ok());
  fixture.fs->DiscardWritable();
  EXPECT_EQ(StringFromBytes(fixture.fs->ReadFile("/etc/hosts")->Materialize()), "hosts");
  EXPECT_TRUE(fixture.fs->Exists("/usr/bin/tor"));
  EXPECT_EQ(fixture.fs->WritableBytes(), 0u);
}

// ---------------------------------------------------------------- BaseImage / VmDisk

TEST(BaseImageTest, DistributionHasStandardFiles) {
  auto image = BaseImage::CreateDistribution("nymix", 42, 8 * kMiB);
  EXPECT_TRUE(image->fs()->Exists("/etc/rc.local"));
  EXPECT_TRUE(image->fs()->Exists("/usr/bin/tor"));
  EXPECT_TRUE(image->fs()->Exists("/usr/bin/chromium"));
  EXPECT_EQ(image->block_count(), 8 * kMiB / kDiskBlockSize);
}

TEST(BaseImageTest, BlockContentIdsStableAcrossInstances) {
  auto a = BaseImage::CreateDistribution("nymix", 42, 1 * kMiB);
  auto b = BaseImage::CreateDistribution("nymix", 42, 1 * kMiB);
  for (uint64_t i = 0; i < a->block_count(); ++i) {
    EXPECT_EQ(a->BlockContentId(i), b->BlockContentId(i));
  }
  auto c = BaseImage::CreateDistribution("nymix", 43, 1 * kMiB);
  EXPECT_NE(a->BlockContentId(0), c->BlockContentId(0));
}

TEST(BaseImageTest, MerkleVerificationCatchesTampering) {
  auto image = BaseImage::CreateDistribution("nymix", 7, 1 * kMiB);
  for (uint64_t i = 0; i < image->block_count(); ++i) {
    EXPECT_TRUE(image->VerifyBlock(i));
  }
  auto tampered = image->TamperedCopy(5, 999);
  EXPECT_FALSE(tampered->VerifyBlock(5));
  EXPECT_TRUE(tampered->VerifyBlock(4));  // other blocks still verify
  EXPECT_TRUE(image->VerifyBlock(5));     // the original is untouched
}

TEST(BaseImageTest, VerifyAllBlocksMatchesPerBlockVerification) {
  auto image = BaseImage::CreateDistribution("nymix", 7, 1 * kMiB);
  EXPECT_TRUE(image->VerifyAllBlocks());
  // Not memoized: a repeat recomputes the same verdict.
  EXPECT_TRUE(image->VerifyAllBlocks());
  auto tampered = image->TamperedCopy(11, 999);
  EXPECT_FALSE(tampered->VerifyAllBlocks());
  EXPECT_FALSE(tampered->VerifyAllBlocks());
  // A copy of the copy still checks against the published root; still
  // corrupt.
  auto twice = tampered->TamperedCopy(12, 1000);
  EXPECT_FALSE(twice->VerifyAllBlocks());
  // Batch and per-block verdicts agree block by block.
  for (uint64_t i = 0; i < twice->block_count(); ++i) {
    EXPECT_EQ(twice->VerifyBlock(i), i != 11 && i != 12) << "block " << i;
  }
  EXPECT_TRUE(image->VerifyAllBlocks());
}

TEST(VmDiskTest, UnionStackWithConfigLayer) {
  auto image = BaseImage::CreateDistribution("nymix", 1, 1 * kMiB);
  auto config = std::make_shared<MemFs>();
  ASSERT_TRUE(config->WriteFile("/etc/rc.local", Blob::FromString("start-tor")).ok());
  VmDisk disk(image, config, 16 * kMiB);
  EXPECT_EQ(StringFromBytes(disk.fs().ReadFile("/etc/rc.local")->Materialize()), "start-tor");
  EXPECT_EQ(StringFromBytes(disk.fs().ReadFile("/etc/hostname")->Materialize()), "nymix");
}

TEST(VmDiskTest, EnforcesWritableCapacity) {
  auto image = BaseImage::CreateDistribution("nymix", 1, 1 * kMiB);
  VmDisk disk(image, nullptr, 1 * kMiB);
  EXPECT_TRUE(disk.WriteFile("/a", Blob::Synthetic(600 * kKiB, 1)).ok());
  auto status = disk.WriteFile("/b", Blob::Synthetic(600 * kKiB, 2));
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  // Overwriting a file accounts for the bytes it frees.
  EXPECT_TRUE(disk.WriteFile("/a", Blob::Synthetic(900 * kKiB, 3)).ok());
  EXPECT_EQ(disk.writable_used(), 900 * kKiB);
}

// ---------------------------------------------------------------- Serialization

TEST(SerializeTest, RoundTripRealAndSynthetic) {
  MemFs fs;
  ASSERT_TRUE(fs.WriteFile("/etc/config", Blob::FromString("key=value")).ok());
  ASSERT_TRUE(fs.WriteFile("/cache/blob", Blob::Synthetic(5 * kMiB, 77, 0.4)).ok());
  Bytes wire = SerializeMemFs(fs);
  auto restored = DeserializeMemFs(wire);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->FileCount(), 2u);
  EXPECT_EQ(StringFromBytes((*restored)->ReadFile("/etc/config")->Materialize()), "key=value");
  auto blob = (*restored)->ReadFile("/cache/blob");
  ASSERT_TRUE(blob.ok());
  EXPECT_TRUE(blob->is_synthetic());
  EXPECT_EQ(blob->size(), 5 * kMiB);
  EXPECT_EQ(blob->ContentHash(), Blob::Synthetic(5 * kMiB, 77, 0.4).ContentHash());
  EXPECT_NEAR(blob->entropy(), 0.4, 1e-5);
}

TEST(SerializeTest, DoubleRoundTripIsStable) {
  MemFs fs;
  ASSERT_TRUE(fs.WriteFile("/x", Blob::Synthetic(1234, 9, 0.7)).ok());
  Bytes once = SerializeMemFs(fs);
  auto mid = DeserializeMemFs(once);
  ASSERT_TRUE(mid.ok());
  Bytes twice = SerializeMemFs(**mid);
  EXPECT_EQ(once, twice);
}

TEST(SerializeTest, RejectsCorruptStream) {
  EXPECT_FALSE(DeserializeMemFs(BytesFromString("junk")).ok());
  MemFs fs;
  ASSERT_TRUE(fs.WriteFile("/a", Blob::FromString("data")).ok());
  Bytes wire = SerializeMemFs(fs);
  wire.resize(wire.size() - 2);
  EXPECT_FALSE(DeserializeMemFs(wire).ok());
}

TEST(SerializeTest, CompressedPayloadEstimate) {
  MemFs fs;
  ASSERT_TRUE(fs.WriteFile("/cache/big", Blob::Synthetic(10 * kMiB, 1, 0.5)).ok());
  uint64_t estimate = EstimateCompressedPayload(fs);
  EXPECT_GT(estimate, 4 * kMiB);   // 0.05+0.95*0.5 ≈ 0.525 ratio
  EXPECT_LT(estimate, 6 * kMiB);
  MemFs empty;
  EXPECT_EQ(EstimateCompressedPayload(empty), 0u);
}

}  // namespace
}  // namespace nymix
