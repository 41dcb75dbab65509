#include "storage/file.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace frieda::storage {

FileId FileCatalog::add_file(std::string name, Bytes size) {
  const FileId id = static_cast<FileId>(files_.size());
  files_.push_back(FileInfo{id, std::move(name), size});
  total_bytes_ += size;
  return id;
}

const FileInfo& FileCatalog::info(FileId id) const {
  FRIEDA_CHECK(id < files_.size(), "file id " << id << " out of range");
  return files_[id];
}

std::vector<FileId> FileCatalog::all_ids() const {
  std::vector<FileId> ids(files_.size());
  for (std::size_t i = 0; i < files_.size(); ++i) ids[i] = static_cast<FileId>(i);
  return ids;
}

void ReplicaMap::add(FileId file, net::NodeId node) {
  by_file_[file].insert(node);
  by_node_[node].insert(file);
}

void ReplicaMap::remove(FileId file, net::NodeId node) {
  if (auto it = by_file_.find(file); it != by_file_.end()) it->second.erase(node);
  if (auto it = by_node_.find(node); it != by_node_.end()) it->second.erase(file);
}

bool ReplicaMap::has(FileId file, net::NodeId node) const {
  const auto it = by_file_.find(file);
  return it != by_file_.end() && it->second.count(node) > 0;
}

const std::unordered_set<net::NodeId>& ReplicaMap::nodes_with(FileId file) const {
  static const std::unordered_set<net::NodeId> kNone;
  const auto it = by_file_.find(file);
  return it == by_file_.end() ? kNone : it->second;
}

std::size_t ReplicaMap::replica_count(FileId file) const {
  const auto it = by_file_.find(file);
  return it == by_file_.end() ? 0 : it->second.size();
}

std::vector<FileId> ReplicaMap::files_on(net::NodeId node) const {
  std::vector<FileId> out;
  if (const auto it = by_node_.find(node); it != by_node_.end()) {
    out.assign(it->second.begin(), it->second.end());
    std::sort(out.begin(), out.end());
  }
  return out;
}

Bytes ReplicaMap::bytes_on(net::NodeId node, const FileCatalog& catalog) const {
  Bytes total = 0;
  if (const auto it = by_node_.find(node); it != by_node_.end()) {
    for (FileId f : it->second) total += catalog.info(f).size;
  }
  return total;
}

void ReplicaMap::drop_node(net::NodeId node) {
  const auto it = by_node_.find(node);
  if (it == by_node_.end()) return;
  for (FileId f : it->second) {
    if (auto fit = by_file_.find(f); fit != by_file_.end()) fit->second.erase(node);
  }
  by_node_.erase(it);
}

}  // namespace frieda::storage
