// MemFs: an in-memory filesystem tree whose file contents are Blobs. One
// MemFs backs each union-fs layer: the read-only base image, the per-role
// configuration layer, and the RAM-resident writable layer whose size is
// what Figure 6 measures.
#ifndef SRC_UNIONFS_MEM_FS_H_
#define SRC_UNIONFS_MEM_FS_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/unionfs/path.h"
#include "src/util/blob.h"
#include "src/util/status.h"

namespace nymix {

struct DirEntry {
  std::string name;
  bool is_directory = false;
  uint64_t size = 0;  // zero for directories
};

class MemFs {
 public:
  MemFs() = default;

  // Creates a directory; with `recursive`, creates missing ancestors.
  Status Mkdir(std::string_view path, bool recursive = false);

  // Creates or replaces a file, creating ancestors as needed.
  Status WriteFile(std::string_view path, Blob content);

  Result<Blob> ReadFile(std::string_view path) const;

  // Removes a file (NOT_FOUND if absent or a directory).
  Status Unlink(std::string_view path);

  bool Exists(std::string_view path) const;
  bool IsDirectory(std::string_view path) const;
  Result<uint64_t> FileSize(std::string_view path) const;

  Result<std::vector<DirEntry>> List(std::string_view path) const;

  // Sum of all file sizes (logical bytes, including synthetic blobs).
  uint64_t TotalBytes() const { return total_bytes_; }
  size_t FileCount() const { return file_count_; }

  // Visits every file as (absolute path, blob), depth-first, sorted names.
  void ForEachFile(const std::function<void(const std::string&, const Blob&)>& visit) const;

  // Secure wipe: drops every node. Models zeroing the RAM-backed layer when
  // a nym terminates (§3.4 "amnesia").
  void WipeAll();

 private:
  struct Node {
    bool is_directory = false;
    Blob content;                                           // files only
    std::map<std::string, std::unique_ptr<Node>> children;  // directories only
  };

  static Node MakeDirectoryNode() {
    Node node;
    node.is_directory = true;
    return node;
  }

  // Walks to the node for `components`; nullptr if missing.
  const Node* Find(const std::vector<std::string>& components) const;
  Node* Find(const std::vector<std::string>& components);

  // Walks to the parent directory, optionally creating missing directories.
  Result<Node*> FindParent(const std::vector<std::string>& components, bool create);


  Node root_ = MakeDirectoryNode();
  uint64_t total_bytes_ = 0;
  size_t file_count_ = 0;
};

}  // namespace nymix

#endif  // SRC_UNIONFS_MEM_FS_H_
