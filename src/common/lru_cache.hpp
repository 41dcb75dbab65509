// Bounded, mutex-guarded least-recently-used map — the one store behind
// both speed-up caches: exp::ResultCache (finished run reports) and
// core::TemplateStore (execution templates, plus build / patch counters and
// the audit flag).
//
// Semantics both rely on:
//   * lookup() returns a *copy* of the value (nullopt on miss) and refreshes
//     the entry's recency, so a cached value can never be mutated or
//     invalidated under a concurrent reader (or by eviction);
//   * insert() is first-insert-wins — identical keys mean identical values —
//     but a re-insert still refreshes recency;
//   * at most max_entries() entries are kept (0 = unbounded); inserting past
//     the cap, or shrinking it, evicts from the least-recently-used end and
//     counts toward evictions();
//   * clear() drops entries but keeps the lifetime hit/miss/eviction counts.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <utility>

namespace frieda {

template <typename K, typename V>
class LruCache {
 public:
  explicit LruCache(std::size_t max_entries) : max_entries_(max_entries) {}

  /// Copy of the cached value, or nullopt on miss.  A hit refreshes the
  /// entry's recency.  Counts toward the hit/miss statistics.
  std::optional<V> lookup(const K& key) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);  // move to MRU position
    return it->second->second;
  }

  /// Store `value` under `key`; returns whether the entry was new.  May
  /// evict the least-recently-used entry when over the cap.
  bool insert(const K& key, V value) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return false;
    }
    lru_.emplace_front(key, std::move(value));
    map_.emplace(key, lru_.begin());
    trim();
    return true;
  }

  /// Change the entry cap (0 = unbounded).  Shrinking below the current
  /// size evicts the LRU tail immediately.
  void set_max_entries(std::size_t cap) {
    std::lock_guard<std::mutex> lock(mutex_);
    max_entries_ = cap;
    trim();
  }

  std::size_t max_entries() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return max_entries_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.size();
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    map_.clear();
    lru_.clear();
  }

  /// Lifetime lookup statistics.
  std::uint64_t hits() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
  }
  std::uint64_t misses() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
  }

  /// Entries evicted by the cap over this cache's lifetime (clear() does
  /// not count as eviction).
  std::uint64_t evictions() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return evictions_;
  }

 private:
  void trim() {  // callers hold mutex_
    while (max_entries_ != 0 && map_.size() > max_entries_) {
      map_.erase(lru_.back().first);
      lru_.pop_back();
      ++evictions_;
    }
  }

  using Entry = std::pair<K, V>;

  mutable std::mutex mutex_;
  std::size_t max_entries_;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  /// Front = most recently used; `map_` points into the list.
  mutable std::list<Entry> lru_;
  std::map<K, typename std::list<Entry>::iterator> map_;
};

}  // namespace frieda
