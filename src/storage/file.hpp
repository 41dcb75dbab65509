// Logical file catalog and replica placement map.
//
// FRIEDA's partition generator (paper Section II.E) operates on the *list of
// input files* in a directory; the master then moves the bytes.  The catalog
// is that list: logical files with sizes.  The ReplicaMap records which
// topology node currently holds a copy of which file — the ground truth the
// placement strategies consult ("is the data already local?") and update as
// staging transfers complete.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/units.hpp"
#include "net/topology.hpp"

namespace frieda::storage {

/// Identifier of a logical file within a catalog.
using FileId = std::uint32_t;

/// One logical input/output file.
struct FileInfo {
  FileId id = 0;
  std::string name;
  Bytes size = 0;
};

/// Immutable-after-build list of logical files (an input directory).
class FileCatalog {
 public:
  /// Register a file; returns its id (dense, insertion-ordered).
  FileId add_file(std::string name, Bytes size);

  /// Number of files.
  std::size_t count() const { return files_.size(); }

  /// Lookup by id; throws on out-of-range.
  const FileInfo& info(FileId id) const;

  /// Sum of all file sizes.
  Bytes total_bytes() const { return total_bytes_; }

  /// All files in id order.
  const std::vector<FileInfo>& files() const { return files_; }

  /// Ids of all files, in order (convenience for the partition generator).
  std::vector<FileId> all_ids() const;

 private:
  std::vector<FileInfo> files_;
  Bytes total_bytes_ = 0;
};

/// Which node holds a replica of which file.
class ReplicaMap {
 public:
  /// Record that `node` holds `file`.  Idempotent.
  void add(FileId file, net::NodeId node);

  /// Remove one replica record; no-op if absent.
  void remove(FileId file, net::NodeId node);

  /// True when `node` holds `file`.
  bool has(FileId file, net::NodeId node) const;

  /// The nodes holding `file`, in the set's own (unspecified) order; a view
  /// that the next add, remove or drop_node may change.
  const std::unordered_set<net::NodeId>& nodes_with(FileId file) const;

  /// Number of replicas of `file`.
  std::size_t replica_count(FileId file) const;

  /// All files present on `node`.
  std::vector<FileId> files_on(net::NodeId node) const;

  /// Bytes of catalog data resident on `node`.
  Bytes bytes_on(net::NodeId node, const FileCatalog& catalog) const;

  /// Forget everything on a node (VM terminated or failed: transient local
  /// storage is gone — the paper's motivating hazard).
  void drop_node(net::NodeId node);

 private:
  std::unordered_map<FileId, std::unordered_set<net::NodeId>> by_file_;
  std::unordered_map<net::NodeId, std::unordered_set<FileId>> by_node_;
};

}  // namespace frieda::storage
