#include "src/hv/guest_memory.h"

#include <algorithm>
#include <numeric>

namespace nymix {

namespace {
// Process-wide creation counter for the id-less constructor, used by
// standalone tests that build a GuestMemory without an EventLoop. Sim code
// paths (VirtualMachine) pass an explicit per-loop id instead, so parallel
// shards never touch this.
uint64_t next_memory_id = 1;
}  // namespace

uint64_t MemoryContents::mapped_pages() const {
  if (image == nullptr) {
    return 0;
  }
  return cycles * image->block_count() +
         std::accumulate(prefixes.begin(), prefixes.end(), uint64_t{0});
}

GuestMemory::GuestMemory(uint64_t ram_bytes) : GuestMemory(ram_bytes, next_memory_id++) {}

GuestMemory::GuestMemory(uint64_t ram_bytes, uint64_t id)
    : id_(id), total_pages_((ram_bytes + kPageSize - 1) / kPageSize) {
  contents_.zero_pages = total_pages_;
}

void GuestMemory::MapImagePages(const std::shared_ptr<const ImageContents>& image,
                                uint64_t count) {
  ++generation_;
  uint64_t blocks = image->block_count();
  NYMIX_CHECK(blocks > 0);
  count = std::min(count, contents_.zero_pages);
  if (count == 0) {
    return;
  }
  if (contents_.image == nullptr) {
    contents_.image = image;
  } else {
    NYMIX_CHECK_MSG(contents_.image->identity() == image->identity(),
                    "a memory maps one image's content between wipes");
  }
  contents_.cycles += count / blocks;
  if (uint64_t prefix = count % blocks; prefix > 0) {
    contents_.prefixes.insert(
        std::upper_bound(contents_.prefixes.begin(), contents_.prefixes.end(), prefix), prefix);
  }
  contents_.zero_pages -= count;
}

void GuestMemory::DirtyPages(uint64_t count) {
  ++generation_;
  uint64_t from_zero = std::min(count, contents_.zero_pages);
  uint64_t from_image = std::min(count - from_zero, contents_.image_pages());
  contents_.zero_pages -= from_zero;
  // Mapping is capped at the zero pages, so once copy-on-write reaches the
  // image no later map adds to it: the mapping is final before `dirtied`
  // grows, and one cumulative count is exact.
  contents_.dirtied += from_image;
  unique_pages_ += from_zero + from_image;
}

void GuestMemory::Wipe() {
  ++generation_;
  contents_ = MemoryContents{};
  contents_.zero_pages = total_pages_;
  unique_pages_ = 0;
}

}  // namespace nymix
