// GuestMemory: page-granular model of a VM's RAM, kept in closed form.
// Pages carry 64-bit content identities instead of 4 KiB buffers — enough
// for the kernel samepage-merging (KSM) model to find duplicates within and
// across VMs (§4.2, Figure 3) — and no page is stored individually: a
// memory is a handful of counters (MemoryContents) from which every page's
// content follows.
//
// Page classes:
//   zero        — untouched guest pages (all VMs share one zero page)
//   image       — pages backed by base-image blocks; identical across every
//                 VM booted from the same USB image
//   unique      — dirtied pages (heaps, browser state); never mergeable
#ifndef SRC_HV_GUEST_MEMORY_H_
#define SRC_HV_GUEST_MEMORY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/unionfs/disk_image.h"

namespace nymix {

inline constexpr uint64_t kPageSize = 4096;

// Content id 0 is reserved for the zero page.
inline constexpr uint64_t kZeroPageContent = 0;

// The shareable pages of one memory. Zero pages all hold content 0. Image
// pages follow from how they were mapped and dirtied: each MapImagePages
// call backs blocks 0, 1, 2, ... in turn, wrapping at the block count, so
// block b has backed `cycles` pages plus one per prefix greater than b.
// Copy-on-write then took `dirtied` of those pages, lowest content id
// first: whole contents, the last one partially. Unique pages never merge
// and are not described here.
struct MemoryContents {
  uint64_t zero_pages = 0;
  // The image content mapped since the last wipe; null while none is.
  std::shared_ptr<const ImageContents> image;
  uint64_t cycles = 0;
  std::vector<uint64_t> prefixes;  // ascending, each in [1, block_count)
  uint64_t dirtied = 0;

  uint64_t mapped_pages() const;
  uint64_t image_pages() const { return mapped_pages() - dirtied; }
};

class GuestMemory {
 public:
  // All pages are obtained from the host at initialization ("KVM obtains
  // most of the requested memory for a VM at VM initialization", §5.2) and
  // start as zero pages. The single-argument form draws the id from a
  // process-wide counter (fine for standalone tests); loop-owned callers
  // (VirtualMachine) pass EventLoop::AllocateObjectId() so parallel shards
  // allocate ids without racing or depending on shard interleaving.
  explicit GuestMemory(uint64_t ram_bytes);
  GuestMemory(uint64_t ram_bytes, uint64_t id);

  uint64_t total_pages() const { return total_pages_; }
  uint64_t total_bytes() const { return total_pages_ * kPageSize; }

  // Creation-order sequence number (same contract as Link::id()): the KSM
  // daemon tracks generations by this instead of by pointer.
  uint64_t id() const { return id_; }

  // Monotonic write-generation, bumped by every mutation (image mapping,
  // page dirtying, wipe). KsmDaemon::ScanNow compares this against the
  // generation it last saw: equal generation ⇒ contents() is unchanged.
  uint64_t generation() const { return generation_; }

  uint64_t zero_pages() const { return contents_.zero_pages; }
  uint64_t image_pages() const { return contents_.image_pages(); }
  uint64_t unique_pages() const { return unique_pages_; }

  // Boot: maps min(count, zero_pages()) pages to the block contents of
  // `image` (a BaseImage's contents(): page cache, text segments), cycling
  // deterministically through the blocks so two VMs on the same image
  // content produce identical ids. Every map between two wipes must use the
  // same image content.
  void MapImagePages(const std::shared_ptr<const ImageContents>& image, uint64_t count);

  // Dirties pages into unique content: first consumes zero pages, then
  // converts image-backed pages (copy-on-write break), never un-dirties.
  void DirtyPages(uint64_t count);

  // What KSM merges: the zero and image-backed pages, in closed form.
  const MemoryContents& contents() const { return contents_; }

  // Secure erase at nym termination: every page becomes zero again and the
  // unique pages are discarded (§3.4 "securely erases the AnonVM's and
  // CommVM's memory").
  void Wipe();

 private:
  uint64_t id_;
  uint64_t generation_ = 1;
  uint64_t total_pages_;
  uint64_t unique_pages_ = 0;
  MemoryContents contents_;
};

}  // namespace nymix

#endif  // SRC_HV_GUEST_MEMORY_H_
