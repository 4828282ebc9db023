// Absolute-path handling for the in-memory filesystems. Paths are
// normalized component vectors; "/" is the empty vector.
#ifndef SRC_UNIONFS_PATH_H_
#define SRC_UNIONFS_PATH_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/util/status.h"

namespace nymix {

// Splits "/etc/rc.local" into {"etc", "rc.local"}; rejects empty components,
// ".", "..", and relative paths.
Result<std::vector<std::string>> SplitPath(std::string_view path);

// Parent directory of a path string ("/a/b" -> "/a", "/a" -> "/").
std::string ParentPath(std::string_view path);

// Final component ("/a/b" -> "b"); empty for "/".
std::string BasenameOf(std::string_view path);

}  // namespace nymix

#endif  // SRC_UNIONFS_PATH_H_
