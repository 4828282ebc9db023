#include "src/unionfs/path.h"

namespace nymix {

Result<std::vector<std::string>> SplitPath(std::string_view path) {
  if (path.empty() || path[0] != '/') {
    return InvalidArgumentError("path must be absolute: '" + std::string(path) + "'");
  }
  std::vector<std::string> components;
  size_t i = 1;
  while (i < path.size()) {
    size_t next = path.find('/', i);
    if (next == std::string_view::npos) {
      next = path.size();
    }
    std::string_view component = path.substr(i, next - i);
    if (component.empty()) {
      return InvalidArgumentError("path has empty component: '" + std::string(path) + "'");
    }
    if (component == "." || component == "..") {
      return InvalidArgumentError("path may not contain '.' or '..'");
    }
    components.emplace_back(component);
    i = next + 1;
  }
  return components;
}

std::string ParentPath(std::string_view path) {
  size_t slash = path.rfind('/');
  if (slash == std::string_view::npos || slash == 0) {
    return "/";
  }
  return std::string(path.substr(0, slash));
}

std::string BasenameOf(std::string_view path) {
  size_t slash = path.rfind('/');
  if (slash == std::string_view::npos) {
    return std::string(path);
  }
  return std::string(path.substr(slash + 1));
}

}  // namespace nymix
