#include "serve/result_cache.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/failpoint.h"

namespace staq::serve {
namespace {

std::shared_ptr<const core::AccessQueryResult> MakeResult(double mean_mac) {
  auto result = std::make_shared<core::AccessQueryResult>();
  result->mean_mac = mean_mac;
  return result;
}

TEST(ResultCacheTest, MissThenHit) {
  ResultCache cache({.shards = 4, .entries_per_shard = 8});
  EXPECT_EQ(cache.Get("k1"), nullptr);
  cache.Put("k1", MakeResult(1.5));
  auto hit = cache.Get("k1");
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->mean_mac, 1.5);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ResultCacheTest, PutRefreshesExistingKey) {
  ResultCache cache({.shards = 1, .entries_per_shard = 4});
  cache.Put("k", MakeResult(1.0));
  cache.Put("k", MakeResult(2.0));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_DOUBLE_EQ(cache.Get("k")->mean_mac, 2.0);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsed) {
  // Single shard so the LRU order is fully observable.
  ResultCache cache({.shards = 1, .entries_per_shard = 2});
  cache.Put("a", MakeResult(1.0));
  cache.Put("b", MakeResult(2.0));
  ASSERT_NE(cache.Get("a"), nullptr);  // promote "a"; "b" is now LRU
  cache.Put("c", MakeResult(3.0));     // evicts "b"
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
}

TEST(ResultCacheTest, CapacityIsBoundedPerShard) {
  ResultCache cache({.shards = 2, .entries_per_shard = 4});
  for (int i = 0; i < 64; ++i) {
    cache.Put("key" + std::to_string(i), MakeResult(i));
  }
  EXPECT_LE(cache.size(), 8u);
  EXPECT_GT(cache.evictions(), 0u);
}

TEST(ResultCacheTest, ZeroOptionsAreClampedToUsableMinimum) {
  ResultCache cache({.shards = 0, .entries_per_shard = 0});
  cache.Put("k", MakeResult(1.0));
  EXPECT_NE(cache.Get("k"), nullptr);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCacheTest, ConcurrentReadersAndWritersStayConsistent) {
  ResultCache cache({.shards = 8, .entries_per_shard = 16});
  constexpr int kThreads = 8;
  constexpr int kOps = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOps; ++i) {
        std::string key = "key" + std::to_string((t * 7 + i) % 40);
        if (i % 3 == 0) {
          cache.Put(key, MakeResult(i));
        } else if (auto hit = cache.Get(key)) {
          // A hit must always expose a fully-formed value.
          EXPECT_GE(hit->mean_mac, 0.0);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<uint64_t>(kThreads) * ((kOps * 2) / 3));
}

TEST(ResultCacheTest, EvictionRacingInsertOfTheSameKeyStaysConsistent) {
  // One thread keeps re-inserting a hot key into a capacity-2 shard while
  // another floods it with cold keys, so the hot key is continually evicted
  // and re-inserted. Every Get must see nullptr or a fully-formed value,
  // and the shard must end within capacity.
  ResultCache cache({.shards = 1, .entries_per_shard = 2});
  std::thread hot([&] {
    for (int i = 0; i < 2000; ++i) {
      cache.Put("hot", MakeResult(7.0));
      if (auto hit = cache.Get("hot")) {
        EXPECT_DOUBLE_EQ(hit->mean_mac, 7.0);
      }
    }
  });
  std::thread cold([&] {
    for (int i = 0; i < 2000; ++i) {
      cache.Put("cold" + std::to_string(i % 64), MakeResult(i));
    }
  });
  hot.join();
  cold.join();
  EXPECT_LE(cache.size(), 2u);
  EXPECT_GT(cache.evictions(), 0u);
}

#if defined(STAQ_FAILPOINTS) && STAQ_FAILPOINTS
TEST(ResultCacheTest, FailedEvictionLeavesCacheUsableAndSelfHealing) {
  // An exception out of the eviction step aborts that Put mid-way, leaving
  // the shard over capacity. The next successful Put must drain the backlog
  // (the eviction loop runs while over capacity, not once).
  ResultCache cache({.shards = 1, .entries_per_shard = 2});
  cache.Put("a", MakeResult(1.0));
  cache.Put("b", MakeResult(2.0));
  {
    util::ScopedFailPoint fp("serve.cache.evict",
                             util::FailPointConfig::Throw("evict failed"));
    EXPECT_THROW(cache.Put("c", MakeResult(3.0)), util::FailPointError);
  }
  EXPECT_EQ(cache.size(), 3u);  // over capacity: the eviction never ran
  // Entries inserted before the failure are still served.
  EXPECT_NE(cache.Get("c"), nullptr);
  cache.Put("d", MakeResult(4.0));  // drains the backlog down to capacity
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_GE(cache.evictions(), 2u);
}
#endif  // STAQ_FAILPOINTS

}  // namespace
}  // namespace staq::serve
