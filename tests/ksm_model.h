// Brute-force reference for guest memory and KSM, kept in tests only.
//
// Every page is a slot holding its content: the zero page, an image block's
// content id, or a unique (never-merging) page. Merging counts contents
// page by page. This is the page-array model GuestMemory used to keep in
// production; src/hv now derives the same totals in closed form from
// MemoryContents, and the tests check the two against each other.
#ifndef TESTS_KSM_MODEL_H_
#define TESTS_KSM_MODEL_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <vector>

#include "src/crypto/sha256.h"
#include "src/hv/ksm.h"

namespace nymix {

class PageArrayMemory {
 public:
  explicit PageArrayMemory(uint64_t total_pages) : pages_(total_pages) {}

  // Rebuilds, page by page, the memory a closed-form description stands
  // for: the same total, the mapping's maps, then one dirty pass that
  // takes what the zero pages lost beyond the mapping plus the image
  // pages copy-on-write took. `block_digests` must be those of the image
  // (or an identical copy) the memory mapped.
  static PageArrayMemory Replay(uint64_t total_pages, const MemoryContents& contents,
                                const std::vector<Sha256Digest>& block_digests) {
    PageArrayMemory model(total_pages);
    model.MapImagePages(block_digests, contents.cycles * block_digests.size());
    for (uint64_t prefix : contents.prefixes) {
      model.MapImagePages(block_digests, prefix);
    }
    model.DirtyPages(model.zero_pages() - contents.zero_pages + contents.dirtied);
    return model;
  }

  // Fills the first `count` zero pages (capped at what is left) with block
  // contents 0, 1, 2, ... of the image with `block_digests`, wrapping at its
  // block count. A block's content id is the prefix of its raw digest.
  void MapImagePages(const std::vector<Sha256Digest>& block_digests, uint64_t count) {
    uint64_t block = 0;
    for (Page& page : pages_) {
      if (count == 0) {
        break;
      }
      if (page.kind == kZero) {
        page = Page{kImage, DigestPrefix64(block_digests[block])};
        block = (block + 1) % block_digests.size();
        --count;
      }
    }
  }

  // Turns `count` pages unique: zero pages first, then image pages in
  // ascending content id order.
  void DirtyPages(uint64_t count) {
    for (Page& page : pages_) {
      if (count > 0 && page.kind == kZero) {
        page.kind = kUnique;
        --count;
      }
    }
    std::vector<size_t> image_pages;
    for (size_t i = 0; i < pages_.size(); ++i) {
      if (pages_[i].kind == kImage) {
        image_pages.push_back(i);
      }
    }
    std::stable_sort(image_pages.begin(), image_pages.end(),
                     [this](size_t a, size_t b) { return pages_[a].content < pages_[b].content; });
    for (size_t i = 0; i < image_pages.size() && count > 0; ++i, --count) {
      pages_[image_pages[i]].kind = kUnique;
    }
  }

  void Wipe() { std::fill(pages_.begin(), pages_.end(), Page{}); }

  uint64_t zero_pages() const { return Count(kZero); }
  uint64_t image_pages() const { return Count(kImage); }
  uint64_t unique_pages() const { return Count(kUnique); }

  // Adds every shareable page to `histogram` (content id -> pages).
  void AddTo(std::map<uint64_t, uint64_t>& histogram) const {
    for (const Page& page : pages_) {
      if (page.kind != kUnique) {
        ++histogram[page.content];
      }
    }
  }

 private:
  enum Kind { kZero, kImage, kUnique };
  struct Page {
    Kind kind = kZero;
    uint64_t content = kZeroPageContent;
  };

  uint64_t Count(Kind kind) const {
    return static_cast<uint64_t>(std::count_if(
        pages_.begin(), pages_.end(), [kind](const Page& page) { return page.kind == kind; }));
  }

  std::vector<Page> pages_;
};

inline KsmStats BruteForceMerge(const std::vector<const PageArrayMemory*>& memories) {
  std::map<uint64_t, uint64_t> histogram;
  for (const PageArrayMemory* memory : memories) {
    memory->AddTo(histogram);
  }
  KsmStats stats;
  for (const auto& [content, pages] : histogram) {
    (void)content;
    if (pages > 1) {
      stats.pages_shared += 1;
      stats.pages_sharing += pages;
    }
  }
  return stats;
}

}  // namespace nymix

#endif  // TESTS_KSM_MODEL_H_
