// Property test for closed-form guest memory and KSM: random call sequences
// run against GuestMemory + KsmDaemon + FleetKsmIndex and, side by side,
// against the brute-force page-array model (tests/ksm_model.h). After every
// call the page counts must agree; every scan must agree on KsmStats and on
// its effort counters (pages scanned, memories merged and skipped); every
// reconcile must agree on FleetKsmStats.
//
// In the style of rapidcheck: each case is generated from a seed, and a
// failing case is shrunk, by dropping calls while it still fails, to a
// short sequence printed with its seed.
#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/crypto/merkle.h"
#include "src/hv/ksm_fleet.h"
#include "src/obs/observability.h"
#include "src/util/prng.h"
#include "tests/ksm_model.h"

namespace nymix {
namespace {

constexpr int kHosts = 3;
constexpr uint64_t kReleaseBlocks = 64;
constexpr uint64_t kOtherBlocks = 48;
constexpr uint64_t kRamPages[] = {40, 97, 256, 300};

// An image as both sides see it: the raw block digests the model derives
// content ids from, and the content view GuestMemory maps.
struct TestImage {
  std::vector<Sha256Digest> digests;
  std::shared_ptr<const ImageContents> contents;

  uint64_t block_count() const { return digests.size(); }
};

// Which images a world's hosts hold. The default is the small release image
// the seeded cases run on.
struct Shape {
  uint64_t release_seed = 7;
  uint64_t release_blocks = kReleaseBlocks;
  // One block of the second image holds content id 0, the zero page's.
  bool zero_id = false;
};

// A distinct view object of `digests`, named by `identity`.
TestImage MakeImage(std::vector<Sha256Digest> digests, const Sha256Digest& identity) {
  auto contents = std::make_shared<const ImageContents>(digests, identity);
  return TestImage{std::move(digests), std::move(contents)};
}

// Second image: some blocks repeat within it and some repeat the release
// image's, so contents are shared across images with different identities.
TestImage OtherImage(const TestImage& release, const Shape& shape) {
  std::vector<Sha256Digest> digests;
  auto unique = BaseImage::CreateDistribution("other", 9, kOtherBlocks * kDiskBlockSize);
  for (uint64_t block = 0; block < kOtherBlocks; ++block) {
    if (block % 3 == 0) {
      digests.push_back(release.digests[block % 8]);
    } else if (block % 3 == 1) {
      digests.push_back(unique->ReadBlockDigest(block % 5));
    } else {
      digests.push_back(unique->ReadBlockDigest(block));
    }
  }
  if (shape.zero_id) {
    Sha256Digest zero_prefix = unique->ReadBlockDigest(kOtherBlocks - 1);
    std::fill(zero_prefix.begin(), zero_prefix.begin() + 8, uint8_t{0});
    digests[2] = zero_prefix;
  }
  Sha256Digest identity = MerkleTree::Build(digests).root();
  return MakeImage(std::move(digests), identity);
}

struct Op {
  enum Kind { kBoot, kMap, kDirty, kWipe, kStop, kStart, kDestroy, kScan, kReconcile };
  Kind kind;
  int target;      // host (kBoot, kScan) or memory, modulo what exists
  int image;       // image kind for a memory's first map; copy for later maps
  uint64_t count;  // RAM pages (kBoot) or pages to map/dirty
};

std::string Describe(const std::vector<Op>& ops) {
  static const char* const kNames[] = {"boot",  "map",     "dirty", "wipe",     "stop",
                                       "start", "destroy", "scan",  "reconcile"};
  std::ostringstream out;
  for (const Op& op : ops) {
    out << "  " << kNames[op.kind] << " target=" << op.target << " image=" << op.image
        << " count=" << op.count << "\n";
  }
  return out.str();
}

std::vector<Op> Generate(uint64_t seed, int length) {
  Prng prng(seed);
  std::vector<Op> ops;
  for (int i = 0; i < length; ++i) {
    Op op{};
    op.target = static_cast<int>(prng.NextBelow(16));
    op.image = static_cast<int>(prng.NextBelow(2 * kHosts));
    switch (prng.NextBelow(14)) {
      case 0:
      case 1:
        op.kind = Op::kBoot;
        op.count = kRamPages[prng.NextBelow(4)];
        break;
      case 2:
      case 3:
      case 4:
        op.kind = Op::kMap;
        // Up to three wraps of the release image, past any memory's zero
        // pages, with exact block-count multiples now and then.
        op.count = prng.NextBelow(4) == 0 ? kReleaseBlocks * prng.NextInRange(1, 3)
                                          : prng.NextBelow(3 * kReleaseBlocks + 40);
        break;
      case 5:
      case 6:
      case 7:
        op.kind = Op::kDirty;
        op.count = prng.NextBelow(3) == 0 ? prng.NextBelow(320) : prng.NextBelow(24);
        break;
      case 8:
        op.kind = Op::kWipe;
        break;
      case 9:
        op.kind = Op::kStop;
        break;
      case 10:
        op.kind = Op::kStart;
        break;
      case 11:
        op.kind = Op::kDestroy;
        break;
      case 12:
        op.kind = Op::kScan;
        break;
      default:
        op.kind = Op::kReconcile;
        break;
    }
    ops.push_back(op);
  }
  return ops;
}

// Which edges a run reached; a property that never met them would prove
// nothing.
struct Coverage {
  bool wrapped = false;        // one map ran past the image's block count
  bool capped = false;         // a map asked for more than the zero pages left
  bool remapped = false;       // a map added to pages an earlier map made
  bool image_dirtied = false;  // copy-on-write reached image pages
  bool skipped = false;        // a scan skipped an unchanged memory
  bool retired = false;        // a scan dropped a memory its last pass saw
  bool mixed_images = false;   // a reconcile merged both images at once
  bool zero_id = false;        // zero pages merged with image pages of content id 0

  void Add(const Coverage& other) {
    wrapped |= other.wrapped;
    capped |= other.capped;
    remapped |= other.remapped;
    image_dirtied |= other.image_dirtied;
    skipped |= other.skipped;
    retired |= other.retired;
    mixed_images |= other.mixed_images;
    zero_id |= other.zero_id;
  }
};

// One run of a call sequence over kHosts hosts. Host 0 maps the interned
// release image's own view and the others distinct views with its
// identity; each host builds its own copy of the second image. So every
// image has several objects, which KSM must match by content identity.
// Each host also has a loop with metrics on, a daemon over its running
// memories, and the model's bookkeeping of which memories the daemon's
// last pass saw unchanged.
class World {
 public:
  explicit World(const Shape& shape) {
    auto release = BaseImage::CreateDistribution("nymix", shape.release_seed,
                                                 shape.release_blocks * kDiskBlockSize);
    for (int h = 0; h < kHosts; ++h) {
      auto host = std::make_unique<Host>();
      host->release = h == 0 ? TestImage{release->block_digests(), release->contents()}
                             : MakeImage(release->block_digests(), release->contents()->identity());
      host->other = OtherImage(host->release, shape);
      host->obs.metrics.set_enabled(true);
      host->loop.set_observability(&host->obs);
      Host* raw = host.get();
      host->ksm = std::make_unique<KsmDaemon>(host->loop, [this, raw] { return Running(*raw); });
      hosts_.push_back(std::move(host));
    }
  }

  const Coverage& coverage() const { return coverage_; }

  // Applies one call to both sides; returns a failure description, or ""
  // when they still agree.
  std::string Apply(const Op& op) {
    if (op.kind == Op::kBoot) {
      Host& host = *hosts_[static_cast<size_t>(op.target) % kHosts];
      memories_.push_back(Memory{&host, std::make_unique<GuestMemory>(op.count * kPageSize),
                                 PageArrayMemory(op.count)});
      return Check("boot", memories_.back());
    }
    if (op.kind == Op::kScan) {
      return Scan(*hosts_[static_cast<size_t>(op.target) % kHosts]);
    }
    if (op.kind == Op::kReconcile) {
      return Reconcile();
    }
    if (memories_.empty()) {
      return "";
    }
    size_t index = static_cast<size_t>(op.target) % memories_.size();
    Memory& memory = memories_[index];
    switch (op.kind) {
      case Op::kMap: {
        // One image kind per memory between wipes, but any host's copy.
        if (memory.image_kind < 0) {
          memory.image_kind = op.image % 2;
        }
        const Host& copy = *hosts_[static_cast<size_t>(op.image / 2) % kHosts];
        const TestImage& image = memory.image_kind == 0 ? copy.release : copy.other;
        uint64_t zero = memory.model.zero_pages();
        coverage_.wrapped |= std::min(op.count, zero) > image.block_count();
        coverage_.capped |= op.count > zero && zero > 0;
        coverage_.remapped |= memory.model.image_pages() > 0 && zero > 0 && op.count > 0;
        memory.real->MapImagePages(image.contents, op.count);
        memory.model.MapImagePages(image.digests, op.count);
        ++memory.mutations;
        return Check("map", memory);
      }
      case Op::kDirty:
        coverage_.image_dirtied |= op.count > memory.model.zero_pages() &&
                                   memory.model.image_pages() > 0;
        memory.real->DirtyPages(op.count);
        memory.model.DirtyPages(op.count);
        ++memory.mutations;
        return Check("dirty", memory);
      case Op::kWipe:
        memory.real->Wipe();
        memory.model.Wipe();
        memory.image_kind = -1;
        ++memory.mutations;
        return Check("wipe", memory);
      case Op::kStop:
        memory.running = false;
        return "";
      case Op::kStart:
        memory.running = true;
        return "";
      default:  // kDestroy
        memories_.erase(memories_.begin() + static_cast<ptrdiff_t>(index));
        return "";
    }
  }

 private:
  struct Host {
    TestImage release;
    TestImage other;
    Observability obs;
    EventLoop loop;
    std::unique_ptr<KsmDaemon> ksm;
    // Model of the daemon's skip rule: per memory the daemon saw last pass
    // (by its real id), the mutation count it saw.
    std::map<uint64_t, uint64_t> last_seen;
  };
  struct Memory {
    Host* host;
    std::unique_ptr<GuestMemory> real;
    PageArrayMemory model;
    int image_kind = -1;
    uint64_t mutations = 0;
    bool running = true;
  };

  std::vector<const GuestMemory*> Running(const Host& host) const {
    std::vector<const GuestMemory*> out;
    for (const Memory& memory : memories_) {
      if (memory.host == &host && memory.running) {
        out.push_back(memory.real.get());
      }
    }
    return out;
  }

  std::vector<const PageArrayMemory*> RunningModels(const Host& host) const {
    std::vector<const PageArrayMemory*> out;
    for (const Memory& memory : memories_) {
      if (memory.host == &host && memory.running) {
        out.push_back(&memory.model);
      }
    }
    return out;
  }

  // Notes a merge over `models` in which the zero page's content id also
  // names image pages: more pages hold content 0 than are zero pages.
  void NoteZeroId(const std::vector<const PageArrayMemory*>& models) {
    std::map<uint64_t, uint64_t> histogram;
    uint64_t zero = 0;
    for (const PageArrayMemory* model : models) {
      model->AddTo(histogram);
      zero += model->zero_pages();
    }
    coverage_.zero_id |= zero > 0 && histogram[kZeroPageContent] > zero;
  }

  static std::string Check(const char* call, const Memory& memory) {
    const GuestMemory& real = *memory.real;
    if (real.zero_pages() != memory.model.zero_pages() ||
        real.image_pages() != memory.model.image_pages() ||
        real.unique_pages() != memory.model.unique_pages()) {
      std::ostringstream out;
      out << "after " << call << ": zero/image/unique " << real.zero_pages() << "/"
          << real.image_pages() << "/" << real.unique_pages() << ", model "
          << memory.model.zero_pages() << "/" << memory.model.image_pages() << "/"
          << memory.model.unique_pages();
      return out.str();
    }
    return "";
  }

  std::string Scan(Host& host) {
    uint64_t merged_before = host.ksm->memories_merged();
    uint64_t skipped_before = host.ksm->memories_skipped();
    uint64_t scanned_before = host.obs.metrics.GetCounter("hv.ksm.pages_scanned")->value();
    KsmStats real = host.ksm->ScanNow();

    KsmStats want = BruteForceMerge(RunningModels(host));
    NoteZeroId(RunningModels(host));
    uint64_t want_merged = 0;
    uint64_t want_skipped = 0;
    uint64_t want_scanned = 0;
    std::map<uint64_t, uint64_t> seen;
    for (const Memory& memory : memories_) {
      if (memory.host != &host || !memory.running) {
        continue;
      }
      auto last = host.last_seen.find(memory.real->id());
      if (last != host.last_seen.end() && last->second == memory.mutations) {
        ++want_skipped;
      } else {
        ++want_merged;
        want_scanned += memory.model.zero_pages() + memory.model.image_pages();
      }
      seen[memory.real->id()] = memory.mutations;
    }
    coverage_.skipped |= want_skipped > 0;
    for (const auto& [id, mutations] : host.last_seen) {
      (void)mutations;
      coverage_.retired |= seen.count(id) == 0;
    }
    host.last_seen = std::move(seen);

    std::ostringstream out;
    if (real.pages_shared != want.pages_shared || real.pages_sharing != want.pages_sharing) {
      out << "scan: shared/sharing " << real.pages_shared << "/" << real.pages_sharing
          << ", model " << want.pages_shared << "/" << want.pages_sharing;
    }
    uint64_t scanned = host.obs.metrics.GetCounter("hv.ksm.pages_scanned")->value();
    if (host.ksm->memories_merged() - merged_before != want_merged ||
        host.ksm->memories_skipped() - skipped_before != want_skipped ||
        scanned - scanned_before != want_scanned) {
      out << "scan: merged/skipped/pages_scanned " << host.ksm->memories_merged() - merged_before
          << "/" << host.ksm->memories_skipped() - skipped_before << "/"
          << scanned - scanned_before << ", model " << want_merged << "/" << want_skipped << "/"
          << want_scanned;
    }
    return out.str();
  }

  std::string Reconcile() {
    bool mapped[2] = {false, false};
    for (const Memory& memory : memories_) {
      if (memory.running && memory.image_kind >= 0 && memory.model.image_pages() > 0) {
        mapped[memory.image_kind] = true;
      }
    }
    coverage_.mixed_images |= mapped[0] && mapped[1];
    std::vector<std::vector<MemoryContents>> snapshots;
    std::vector<const PageArrayMemory*> fleet;
    uint64_t want_local = 0;
    for (const auto& host : hosts_) {
      snapshots.push_back(host->ksm->Snapshot());
      std::vector<const PageArrayMemory*> local = RunningModels(*host);
      want_local += BruteForceMerge(local).pages_sharing;
      fleet.insert(fleet.end(), local.begin(), local.end());
    }
    FleetKsmStats real = FleetKsmIndex::Reconcile(snapshots);
    KsmStats want = BruteForceMerge(fleet);
    NoteZeroId(fleet);
    if (real.hosts != static_cast<uint64_t>(kHosts) || real.pages_shared != want.pages_shared ||
        real.pages_sharing != want.pages_sharing || real.local_pages_sharing != want_local) {
      std::ostringstream out;
      out << "reconcile: shared/sharing/local " << real.pages_shared << "/" << real.pages_sharing
          << "/" << real.local_pages_sharing << ", model " << want.pages_shared << "/"
          << want.pages_sharing << "/" << want_local;
      return out.str();
    }
    return "";
  }

  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<Memory> memories_;
  Coverage coverage_;
};

// Runs `ops` on a fresh world; returns the first failure (with the index
// of the call that exposed it), or "".
std::string RunOps(const std::vector<Op>& ops, size_t* failed_at, Coverage* coverage = nullptr,
                   const Shape& shape = {}) {
  World world(shape);
  for (size_t i = 0; i < ops.size(); ++i) {
    std::string failure = world.Apply(ops[i]);
    if (!failure.empty()) {
      *failed_at = i;
      return failure;
    }
  }
  if (coverage != nullptr) {
    coverage->Add(world.coverage());
  }
  return "";
}

// Greedy shrink: drop calls one at a time while the sequence still fails.
std::vector<Op> Shrink(std::vector<Op> ops) {
  for (size_t i = ops.size(); i-- > 0;) {
    std::vector<Op> smaller = ops;
    smaller.erase(smaller.begin() + static_cast<ptrdiff_t>(i));
    size_t failed_at = 0;
    if (!RunOps(smaller, &failed_at).empty()) {
      smaller.resize(failed_at + 1);
      ops = std::move(smaller);
      i = std::min(i, ops.size());
    }
  }
  return ops;
}

TEST(KsmPropertyTest, ClosedFormMatchesPageArrayModel) {
  Coverage coverage;
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    std::vector<Op> ops = Generate(seed, 100);
    size_t failed_at = 0;
    if (!RunOps(ops, &failed_at, &coverage).empty()) {
      ops.resize(failed_at + 1);
      std::vector<Op> minimal = Shrink(ops);
      FAIL() << "seed " << seed << ": " << RunOps(minimal, &failed_at) << "\nminimal sequence:\n"
             << Describe(minimal);
    }
  }
  EXPECT_TRUE(coverage.wrapped);
  EXPECT_TRUE(coverage.capped);
  EXPECT_TRUE(coverage.remapped);
  EXPECT_TRUE(coverage.image_dirtied);
  EXPECT_TRUE(coverage.skipped);
  EXPECT_TRUE(coverage.retired);
  EXPECT_TRUE(coverage.mixed_images);
}

// Pinned cases, each one of the edges above on its own.
TEST(KsmPropertyTest, RepeatedMapsWrapAndCap) {
  std::vector<Op> ops = {
      {Op::kBoot, 0, 0, 300},      {Op::kMap, 0, 0, 100},
      {Op::kMap, 0, 2, 100},       {Op::kMap, 0, 4, kReleaseBlocks},
      {Op::kBoot, 1, 0, 97},       {Op::kMap, 1, 3, 1000},
      {Op::kScan, 0, 0, 0},        {Op::kScan, 1, 0, 0},
      {Op::kReconcile, 0, 0, 0},
  };
  size_t failed_at = 0;
  EXPECT_EQ(RunOps(ops, &failed_at), "");
}

TEST(KsmPropertyTest, DirtyCrossesIntoImageWithPartialTakes) {
  std::vector<Op> ops = {
      {Op::kBoot, 0, 0, 256}, {Op::kMap, 0, 0, 150}, {Op::kMap, 0, 0, 20},
      {Op::kBoot, 0, 0, 256}, {Op::kMap, 1, 0, 150}, {Op::kMap, 1, 0, 20},
      {Op::kScan, 0, 0, 0},   {Op::kDirty, 0, 0, 90}, {Op::kDirty, 0, 0, 7},
      {Op::kScan, 0, 0, 0},   {Op::kDirty, 1, 0, 200}, {Op::kScan, 0, 0, 0},
      {Op::kReconcile, 0, 0, 0},
  };
  size_t failed_at = 0;
  EXPECT_EQ(RunOps(ops, &failed_at), "");
}

TEST(KsmPropertyTest, RetirementAndUnchangedSkips) {
  std::vector<Op> ops = {
      {Op::kBoot, 0, 0, 97},  {Op::kBoot, 0, 0, 97},  {Op::kMap, 0, 0, 60},
      {Op::kMap, 1, 0, 60},   {Op::kScan, 0, 0, 0},   {Op::kScan, 0, 0, 0},
      {Op::kStop, 0, 0, 0},   {Op::kScan, 0, 0, 0},   {Op::kStart, 0, 0, 0},
      {Op::kScan, 0, 0, 0},   {Op::kWipe, 1, 0, 0},   {Op::kScan, 0, 0, 0},
      {Op::kDestroy, 0, 0, 0}, {Op::kScan, 0, 0, 0},
  };
  size_t failed_at = 0;
  EXPECT_EQ(RunOps(ops, &failed_at), "");
}

// The fleet's release image (64 MiB, 16,384 blocks, so every level of the
// dominance index is used) with fleet-shaped memories: AnonVMs of 98,304
// pages mapping 3,440 and CommVMs of 32,768 pages mapping 1,966, on two
// hosts, dirtied past their zero pages into the image.
TEST(KsmPropertyTest, FleetShapedMemoriesOnTheReleaseImage) {
  constexpr uint64_t kAnonPages = 98'304;
  constexpr uint64_t kCommPages = 32'768;
  constexpr uint64_t kAnonMapped = 3'440;
  constexpr uint64_t kCommMapped = 1'966;
  std::vector<Op> ops = {
      {Op::kBoot, 0, 0, kAnonPages},
      {Op::kBoot, 0, 0, kCommPages},
      {Op::kBoot, 1, 0, kAnonPages},
      {Op::kBoot, 1, 0, kCommPages},
      {Op::kBoot, 0, 0, kAnonPages},
      {Op::kMap, 0, 0, kAnonMapped},
      {Op::kMap, 1, 0, kCommMapped},
      {Op::kMap, 2, 2, kAnonMapped},
      {Op::kMap, 3, 2, kCommMapped},
      {Op::kMap, 4, 4, kAnonMapped},
      {Op::kScan, 0, 0, 0},
      {Op::kScan, 1, 0, 0},
      {Op::kReconcile, 0, 0, 0},
      {Op::kDirty, 0, 0, kAnonPages - kAnonMapped + 1'000},
      {Op::kDirty, 1, 0, kCommPages - kCommMapped + 1},
      {Op::kDirty, 2, 0, kAnonPages - kAnonMapped + 2'500},
      {Op::kDirty, 3, 0, kCommPages - kCommMapped + 1'965},
      {Op::kDirty, 4, 0, kAnonPages - kAnonMapped + 1'000},
      {Op::kScan, 0, 0, 0},
      {Op::kScan, 1, 0, 0},
      {Op::kReconcile, 0, 0, 0},
      {Op::kScan, 0, 0, 0},
  };
  Coverage coverage;
  size_t failed_at = 0;
  EXPECT_EQ(RunOps(ops, &failed_at, &coverage, Shape{.release_seed = 42, .release_blocks = 16'384}),
            "");
  EXPECT_TRUE(coverage.image_dirtied);
  EXPECT_TRUE(coverage.skipped);
}

// The second image holds content id 0 at one block, so its pages there
// merge with every memory's zero pages, on a host and across hosts.
TEST(KsmPropertyTest, ImageContentIdEqualToTheZeroPage) {
  std::vector<Op> ops = {
      {Op::kBoot, 0, 0, 97},    {Op::kMap, 0, 1, 60},    {Op::kBoot, 1, 0, 256},
      {Op::kMap, 1, 3, 150},    {Op::kBoot, 2, 0, 40},   {Op::kMap, 2, 0, 30},
      {Op::kScan, 0, 0, 0},     {Op::kScan, 1, 0, 0},    {Op::kReconcile, 0, 0, 0},
      {Op::kDirty, 1, 0, 111},  {Op::kDirty, 0, 0, 40},  {Op::kScan, 0, 0, 0},
      {Op::kScan, 1, 0, 0},     {Op::kReconcile, 0, 0, 0},
  };
  Coverage coverage;
  size_t failed_at = 0;
  EXPECT_EQ(RunOps(ops, &failed_at, &coverage, Shape{.zero_id = true}), "");
  EXPECT_TRUE(coverage.zero_id);
  EXPECT_TRUE(coverage.image_dirtied);
}

// The dominance index against direct counts: every (rank, block) pair on
// a 1,000-block image with irregular ranks, and random pairs on 16,384
// blocks. D(R, x) counts the blocks with rank < R and index < x.
void ExpectIndexMatches(const std::vector<Sha256Digest>& digests, uint64_t random_queries) {
  ImageContents image(digests, MerkleTree::Build(digests).root());
  const uint64_t blocks = digests.size();
  std::vector<uint64_t> rank_of(blocks);
  for (uint64_t block = 0; block < blocks; ++block) {
    auto it = std::lower_bound(image.ids().begin(), image.ids().end(),
                               DigestPrefix64(digests[block]));
    ASSERT_TRUE(it != image.ids().end() && *it == DigestPrefix64(digests[block]));
    rank_of[block] = static_cast<uint64_t>(it - image.ids().begin());
  }
  for (uint64_t rank = 0; rank < image.ids().size(); ++rank) {
    std::vector<uint32_t> want;
    for (uint64_t block = 0; block < blocks; ++block) {
      if (rank_of[block] == rank) {
        want.push_back(static_cast<uint32_t>(block));
      }
    }
    std::span<const uint32_t> got = image.BlocksAt(rank);
    ASSERT_EQ(std::vector<uint32_t>(got.begin(), got.end()), want) << "rank " << rank;
    bool irregular = std::binary_search(image.irregular_ranks().begin(),
                                        image.irregular_ranks().end(), rank);
    EXPECT_EQ(irregular, want.size() > 1) << "rank " << rank;
  }
  if (random_queries == 0) {
    // below[x] = blocks with rank < R and index < x, advanced one rank at a time.
    std::vector<uint64_t> below(blocks + 1, 0);
    for (uint64_t rank = 0; rank <= image.ids().size(); ++rank) {
      for (uint64_t x = 0; x <= blocks; ++x) {
        ASSERT_EQ(image.CountDominated(rank, x), below[x]) << "R=" << rank << " x=" << x;
      }
      if (rank < image.ids().size()) {
        for (uint32_t block : image.BlocksAt(rank)) {
          for (uint64_t x = block + 1; x <= blocks; ++x) {
            ++below[x];
          }
        }
      }
    }
    return;
  }
  Prng prng(blocks);
  for (uint64_t i = 0; i < random_queries; ++i) {
    uint64_t rank = prng.NextBelow(image.ids().size() + 1);
    uint64_t x = prng.NextBelow(blocks + 1);
    uint64_t want = 0;
    for (uint64_t block = 0; block < x; ++block) {
      want += rank_of[block] < rank;
    }
    ASSERT_EQ(image.CountDominated(rank, x), want) << "R=" << rank << " x=" << x;
  }
}

TEST(ImageIndexTest, EveryQueryOnAThousandBlocks) {
  auto source = BaseImage::CreateDistribution("index", 1, 1'000 * kDiskBlockSize);
  std::vector<Sha256Digest> digests = source->block_digests();
  // Irregular ranks: runs of repeats, a block repeating a far one, and the
  // largest and smallest contents repeated.
  for (uint64_t block = 100; block < 110; ++block) {
    digests[block] = digests[99];
  }
  digests[998] = digests[3];
  digests[500] = digests[501];
  ExpectIndexMatches(digests, 0);
}

TEST(ImageIndexTest, RandomQueriesOnTheReleaseImage) {
  auto release = BaseImage::CreateDistribution("nymix", 42, 64 * kMiB);
  ASSERT_EQ(release->block_count(), 16'384u);
  ExpectIndexMatches(release->block_digests(), 10'000);
}

}  // namespace
}  // namespace nymix
