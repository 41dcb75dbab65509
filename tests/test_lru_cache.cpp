// LruCache: the bounded store shared by exp::ResultCache and
// core::TemplateStore — hits/misses, first-insert-wins, recency order,
// cap changes, and eviction counting.
#include <gtest/gtest.h>

#include "common/lru_cache.hpp"

namespace frieda {
namespace {

TEST(LruCache, LookupInsertAndCounters) {
  LruCache<int, int> cache(4);
  EXPECT_FALSE(cache.lookup(1).has_value());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_TRUE(cache.insert(1, 10));
  EXPECT_FALSE(cache.insert(1, 99));  // first insert wins
  EXPECT_EQ(cache.lookup(1).value(), 10);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCache, EvictsLeastRecentlyUsedInOrder) {
  LruCache<int, int> cache(2);
  EXPECT_EQ(cache.max_entries(), 2u);
  cache.insert(0, 0);
  cache.insert(1, 1);
  EXPECT_EQ(cache.evictions(), 0u);

  // Touch 0 so 1 becomes the LRU entry, then overflow.
  EXPECT_TRUE(cache.lookup(0).has_value());
  cache.insert(2, 2);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.lookup(1).has_value());  // evicted
  EXPECT_TRUE(cache.lookup(0).has_value());   // kept (recently used)
  EXPECT_TRUE(cache.lookup(2).has_value());

  // Re-inserting an existing key refreshes recency instead of evicting.
  cache.insert(0, 0);
  cache.insert(3, 3);
  EXPECT_FALSE(cache.lookup(2).has_value());
  EXPECT_TRUE(cache.lookup(0).has_value());
}

TEST(LruCache, ShrinkingTheCapEvictsImmediately) {
  LruCache<int, int> cache(64);
  for (int i = 0; i < 8; ++i) cache.insert(i, i);
  cache.set_max_entries(3);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 5u);
  // The survivors are the three most recently inserted.
  EXPECT_TRUE(cache.lookup(7).has_value());
  EXPECT_TRUE(cache.lookup(6).has_value());
  EXPECT_TRUE(cache.lookup(5).has_value());
  EXPECT_FALSE(cache.lookup(4).has_value());

  cache.set_max_entries(0);  // unbounded again
  for (int i = 10; i < 30; ++i) cache.insert(i, i);
  EXPECT_EQ(cache.size(), 23u);
}

TEST(LruCache, ClearKeepsCounters) {
  LruCache<int, int> cache(2);
  cache.insert(1, 10);
  cache.insert(2, 20);
  (void)cache.lookup(1);  // 1 is now the most recent
  cache.insert(3, 30);  // evicts 2
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.evictions(), 1u);  // clear() is not eviction
}

}  // namespace
}  // namespace frieda
