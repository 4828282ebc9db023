#include "src/unionfs/mem_fs.h"

#include <algorithm>

namespace nymix {

const MemFs::Node* MemFs::Find(const std::vector<std::string>& components) const {
  const Node* node = &root_;
  for (const auto& component : components) {
    if (!node->is_directory) {
      return nullptr;
    }
    auto it = node->children.find(component);
    if (it == node->children.end()) {
      return nullptr;
    }
    node = it->second.get();
  }
  return node;
}

MemFs::Node* MemFs::Find(const std::vector<std::string>& components) {
  return const_cast<Node*>(static_cast<const MemFs*>(this)->Find(components));
}

Result<MemFs::Node*> MemFs::FindParent(const std::vector<std::string>& components, bool create) {
  NYMIX_CHECK(!components.empty());
  Node* node = &root_;
  for (size_t i = 0; i + 1 < components.size(); ++i) {
    if (!node->is_directory) {
      return FailedPreconditionError("path component is a file: " + components[i]);
    }
    auto it = node->children.find(components[i]);
    if (it == node->children.end()) {
      if (!create) {
        return NotFoundError("missing directory: " + components[i]);
      }
      auto dir = std::make_unique<Node>();
      dir->is_directory = true;
      it = node->children.emplace(components[i], std::move(dir)).first;
    }
    node = it->second.get();
  }
  if (!node->is_directory) {
    return FailedPreconditionError("parent is a file");
  }
  return node;
}

Status MemFs::Mkdir(std::string_view path, bool recursive) {
  NYMIX_ASSIGN_OR_RETURN(auto components, SplitPath(path));
  if (components.empty()) {
    return OkStatus();  // "/" always exists
  }
  NYMIX_ASSIGN_OR_RETURN(Node * parent, FindParent(components, recursive));
  const std::string& name = components.back();
  auto it = parent->children.find(name);
  if (it != parent->children.end()) {
    if (it->second->is_directory) {
      return recursive ? OkStatus() : AlreadyExistsError("directory exists: " + std::string(path));
    }
    return AlreadyExistsError("file exists at: " + std::string(path));
  }
  auto dir = std::make_unique<Node>();
  dir->is_directory = true;
  parent->children.emplace(name, std::move(dir));
  return OkStatus();
}

Status MemFs::WriteFile(std::string_view path, Blob content) {
  NYMIX_ASSIGN_OR_RETURN(auto components, SplitPath(path));
  if (components.empty()) {
    return InvalidArgumentError("cannot write to '/'");
  }
  NYMIX_ASSIGN_OR_RETURN(Node * parent, FindParent(components, /*create=*/true));
  const std::string& name = components.back();
  auto it = parent->children.find(name);
  if (it != parent->children.end()) {
    if (it->second->is_directory) {
      return FailedPreconditionError("directory exists at: " + std::string(path));
    }
    total_bytes_ -= it->second->content.size();
    total_bytes_ += content.size();
    it->second->content = std::move(content);
    return OkStatus();
  }
  auto file = std::make_unique<Node>();
  file->is_directory = false;
  total_bytes_ += content.size();
  ++file_count_;
  file->content = std::move(content);
  parent->children.emplace(name, std::move(file));
  return OkStatus();
}

Result<Blob> MemFs::ReadFile(std::string_view path) const {
  NYMIX_ASSIGN_OR_RETURN(auto components, SplitPath(path));
  const Node* node = Find(components);
  if (node == nullptr) {
    return NotFoundError("no such file: " + std::string(path));
  }
  if (node->is_directory) {
    return FailedPreconditionError("is a directory: " + std::string(path));
  }
  return node->content;
}

Status MemFs::Unlink(std::string_view path) {
  NYMIX_ASSIGN_OR_RETURN(auto components, SplitPath(path));
  if (components.empty()) {
    return InvalidArgumentError("cannot unlink '/'");
  }
  NYMIX_ASSIGN_OR_RETURN(Node * parent, FindParent(components, /*create=*/false));
  auto it = parent->children.find(components.back());
  if (it == parent->children.end() || it->second->is_directory) {
    return NotFoundError("no such file: " + std::string(path));
  }
  total_bytes_ -= it->second->content.size();
  --file_count_;
  parent->children.erase(it);
  return OkStatus();
}

bool MemFs::Exists(std::string_view path) const {
  auto components = SplitPath(path);
  if (!components.ok()) {
    return false;
  }
  return Find(*components) != nullptr;
}

bool MemFs::IsDirectory(std::string_view path) const {
  auto components = SplitPath(path);
  if (!components.ok()) {
    return false;
  }
  const Node* node = Find(*components);
  return node != nullptr && node->is_directory;
}

Result<uint64_t> MemFs::FileSize(std::string_view path) const {
  NYMIX_ASSIGN_OR_RETURN(Blob blob, ReadFile(path));
  return blob.size();
}

Result<std::vector<DirEntry>> MemFs::List(std::string_view path) const {
  NYMIX_ASSIGN_OR_RETURN(auto components, SplitPath(path));
  const Node* node = Find(components);
  if (node == nullptr) {
    return NotFoundError("no such directory: " + std::string(path));
  }
  if (!node->is_directory) {
    return FailedPreconditionError("not a directory: " + std::string(path));
  }
  std::vector<DirEntry> entries;
  entries.reserve(node->children.size());
  for (const auto& [name, child] : node->children) {
    entries.push_back(DirEntry{name, child->is_directory,
                               child->is_directory ? 0 : child->content.size()});
  }
  return entries;
}

void MemFs::ForEachFile(
    const std::function<void(const std::string&, const Blob&)>& visit) const {
  std::function<void(const Node&, const std::string&)> walk = [&](const Node& node,
                                                                  const std::string& prefix) {
    for (const auto& [name, child] : node.children) {
      std::string child_path = prefix + "/" + name;
      if (child->is_directory) {
        walk(*child, child_path);
      } else {
        visit(child_path, child->content);
      }
    }
  };
  walk(root_, "");
}

void MemFs::WipeAll() {
  root_.children.clear();
  total_bytes_ = 0;
  file_count_ = 0;
}

}  // namespace nymix
