#include "serve/result_cache.h"

#include <functional>

#include "util/failpoint.h"

namespace staq::serve {

ResultCache::ResultCache(Options options) : options_(options) {
  if (options_.shards == 0) options_.shards = 1;
  if (options_.entries_per_shard == 0) options_.entries_per_shard = 1;
  shards_.reserve(options_.shards);
  for (size_t s = 0; s < options_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ResultCache::Shard& ResultCache::ShardFor(const std::string& key) {
  size_t h = std::hash<std::string>{}(key);
  return *shards_[h % shards_.size()];
}

std::shared_ptr<const core::AccessQueryResult> ResultCache::Get(
    const std::string& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->value;
}

void ResultCache::Put(const std::string& key,
                      std::shared_ptr<const core::AccessQueryResult> value) {
  // Fault site: insertion failing before any shard state changes (callers
  // must treat a failed Put as "not cached", never as a failed query).
  STAQ_FAILPOINT("serve.cache.put");
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->value = std::move(value);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{key, std::move(value)});
  shard.index[key] = shard.lru.begin();
  // `while`, not `if`: a previous eviction aborted by the fault site below
  // can leave the shard over capacity; the next insert drains the excess.
  while (shard.lru.size() > options_.entries_per_shard) {
    // Fault site: eviction failing before the victim is touched — the new
    // entry is already inserted, the victim survives until the next Put.
    STAQ_FAILPOINT("serve.cache.evict");
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

size_t ResultCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->lru.size();
  }
  return total;
}

}  // namespace staq::serve
