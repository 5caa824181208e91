// QueryRouter — client-side sharding and failover for the serving tier.
//
// A deployment runs N shards, each serving one slice of the (city,
// scenario) keyspace, and each shard runs one primary plus any number of
// read replicas. The router is a *client-side* library (the Cassandra /
// Vitess shape, not a proxy hop): it hashes the shard key, keeps one
// lazily-dialed connection per backend, and retries.
//
//   * Placement: shard = XxHash64(key.Canonical()) % num_shards — the same
//     hash the store and WAL checksum with, so placement is stable across
//     processes and runs.
//   * Reads fan over the shard's backends round-robin, failing over on
//     kUnavailable (backend down, or behind the router's min-sequence
//     floor) until the attempt budget runs out.
//   * Writes go only to replicas[0], the shard's primary — replicas are
//     read-only and refuse mutations, so a misconfigured router cannot
//     fork history. After a successful mutation the router raises its
//     per-shard min_sequence floor: subsequent reads through this router
//     see that write no matter which replica answers (read-your-writes).
//
// Not thread-safe: connections are serially reused. Give each client
// thread its own router — the bench and e2e do — rather than serialising
// every request through one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/client.h"

namespace staq::net {

/// One backend address (always 127.0.0.1 in tests/benches; any IPv4
/// literal works).
struct Backend {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

/// What a query is about: the city family and the named scenario whose
/// mutation history it addresses. Everything about one key lands on one
/// shard, so a scenario's epoch chain lives in one WAL.
struct ShardKey {
  std::string city;
  std::string scenario;

  /// Canonical form fed to the placement hash.
  std::string Canonical() const { return city + "/" + scenario; }
};

class QueryRouter {
 public:
  struct Options {
    /// Distinct backends tried per request before giving up.
    int max_attempts = 3;
    double connect_timeout_s = 5.0;
    double io_timeout_s = 30.0;
  };

  struct Stats {
    uint64_t queries = 0;
    uint64_t mutations = 0;
    uint64_t failovers = 0;  // retries on another backend
    uint64_t redials = 0;    // reconnects to a backend
  };

  /// `shards[i]` is shard i's backend list; `shards[i][0]` is its primary.
  QueryRouter(std::vector<std::vector<Backend>> shards, Options options);
  // Defaulted-argument form spelled as a delegating overload: GCC defers
  // nested-class member initializers to the end of the enclosing class, so
  // Options{} cannot appear in a default argument here.
  explicit QueryRouter(std::vector<std::vector<Backend>> shards)
      : QueryRouter(std::move(shards), Options()) {}

  /// Stable placement: XxHash64 of the canonical key, mod `num_shards`.
  static size_t ShardOf(const ShardKey& key, size_t num_shards);

  size_t num_shards() const { return shards_.size(); }
  Stats stats() const { return stats_; }

  /// Routes a read to `key`'s shard, failing over across its backends on
  /// kUnavailable. The effective min_sequence is the max of the caller's
  /// floor and the router's read-your-writes floor for that shard.
  util::Result<QueryResultMsg> Query(const ShardKey& key,
                                     const serve::AqRequest& request,
                                     uint64_t min_sequence = 0);

  /// Routes a mutation record, unchanged, to `key`'s primary (no
  /// failover: a write that may or may not have landed must surface, not
  /// silently retry) and raises the shard's read floor on success.
  util::Result<MutateResultMsg> Mutate(const ShardKey& key,
                                       const wal::MutationRecord& record);

  // The POI edits the benches drive, spelled as Mutate.
  util::Result<MutateResultMsg> AddPoi(const ShardKey& key,
                                       synth::PoiCategory category,
                                       const geo::Point& position) {
    return Mutate(key, wal::MutationRecord::AddPoi(0, category, position, 0));
  }
  util::Result<MutateResultMsg> RemovePoi(const ShardKey& key,
                                          uint32_t poi_id) {
    return Mutate(key, wal::MutationRecord::RemovePoi(0, poi_id));
  }

 private:
  struct Slot {
    Backend backend;
    AqClient client;  // dialed lazily; dropped on transport errors
  };

  /// The connected client for shard/replica, dialing if necessary.
  util::Result<AqClient*> Acquire(size_t shard, size_t replica);

  std::vector<std::vector<Slot>> shards_;
  /// Round-robin read cursor per shard (spreads load across replicas).
  std::vector<size_t> next_replica_;
  /// Read-your-writes floor per shard.
  std::vector<uint64_t> min_sequence_;
  Options options_;
  Stats stats_;
};

}  // namespace staq::net
