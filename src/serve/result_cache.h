// Sharded LRU cache for access-query results.
//
// Keys are the canonical strings of serve/request.h prefixed with the
// scenario epoch, so a mutation never serves stale answers: results
// computed under epoch e are only ever returned to requests that resolved
// their snapshot to epoch e. Old-epoch entries age out of the LRU
// naturally — there is no explicit flush on mutation, which keeps writers
// off the cache locks.
//
// Sharding: the key hash picks one of `shards` independent LRU maps, each
// behind its own mutex, so concurrent readers on different shards never
// contend. Values are shared_ptr<const AccessQueryResult>: a hit hands the
// caller a reference to the immutable stored result without copying under
// the shard lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/access_query.h"

namespace staq::serve {

class ResultCache {
 public:
  struct Options {
    size_t shards = 8;
    /// Per-shard entry capacity; total capacity = shards x this.
    size_t entries_per_shard = 64;
  };

  explicit ResultCache(Options options);

  /// Returns the cached result or nullptr. A hit promotes the entry to
  /// most-recently-used in its shard.
  std::shared_ptr<const core::AccessQueryResult> Get(const std::string& key);

  /// Inserts (or refreshes) `value` under `key`, evicting the shard's
  /// least-recently-used entries while it is over capacity.
  void Put(const std::string& key,
           std::shared_ptr<const core::AccessQueryResult> value);

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  size_t size() const;  // total entries across shards

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const core::AccessQueryResult> value;
  };
  struct Shard {
    std::mutex mu;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
  };

  Shard& ShardFor(const std::string& key);

  Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace staq::serve
