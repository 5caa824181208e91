#include "net/router.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/hash.h"

namespace staq::net {

namespace {

/// Transport failures and behind-the-floor replicas are worth trying
/// elsewhere; semantic failures (bad request, NotFound) are not.
bool Retryable(const util::Status& status) {
  return status.code() == util::StatusCode::kUnavailable;
}

}  // namespace

QueryRouter::QueryRouter(std::vector<std::vector<Backend>> shards,
                         Options options)
    : options_(options) {
  STAQ_CHECK(!shards.empty(), "router needs at least one shard");
  shards_.reserve(shards.size());
  for (auto& backends : shards) {
    STAQ_CHECK(!backends.empty(), "every shard needs at least one backend");
    std::vector<Slot> slots;
    slots.reserve(backends.size());
    for (auto& backend : backends) {
      Slot slot;
      slot.backend = std::move(backend);
      slots.push_back(std::move(slot));
    }
    shards_.push_back(std::move(slots));
  }
  next_replica_.assign(shards_.size(), 0);
  min_sequence_.assign(shards_.size(), 0);
}

size_t QueryRouter::ShardOf(const ShardKey& key, size_t num_shards) {
  STAQ_CHECK(num_shards > 0, "ShardOf over zero shards");
  const std::string canonical = key.Canonical();
  return static_cast<size_t>(
      util::XxHash64(canonical.data(), canonical.size()) % num_shards);
}

util::Result<AqClient*> QueryRouter::Acquire(size_t shard, size_t replica) {
  Slot& slot = shards_[shard][replica];
  if (!slot.client.connected()) {
    auto client = AqClient::Connect(slot.backend.host, slot.backend.port,
                                    options_.connect_timeout_s);
    if (!client.ok()) return client.status();
    slot.client = std::move(client).value();
    ++stats_.redials;
  }
  return &slot.client;
}

util::Result<QueryResultMsg> QueryRouter::Query(const ShardKey& key,
                                                const serve::AqRequest& request,
                                                uint64_t min_sequence) {
  ++stats_.queries;
  const size_t shard = ShardOf(key, shards_.size());
  const uint64_t floor = std::max(min_sequence, min_sequence_[shard]);
  const size_t num_backends = shards_[shard].size();
  const int attempts =
      std::min<int>(options_.max_attempts, static_cast<int>(num_backends));

  util::Status last =
      util::Status::Unavailable("no backend attempted (attempt budget 0)");
  for (int attempt = 0; attempt < attempts; ++attempt) {
    const size_t replica = next_replica_[shard] % num_backends;
    next_replica_[shard] = replica + 1;
    if (attempt > 0) ++stats_.failovers;

    auto client = Acquire(shard, replica);
    if (!client.ok()) {
      last = client.status();
      continue;
    }
    auto result = client.value()->Query(request, floor);
    if (result.ok()) return result;
    if (!Retryable(result.status())) return result.status();
    last = result.status();
  }
  return last;
}

util::Result<MutateResultMsg> QueryRouter::Mutate(
    const ShardKey& key, const wal::MutationRecord& record) {
  ++stats_.mutations;
  const size_t shard = ShardOf(key, shards_.size());
  auto client = Acquire(shard, /*replica=*/0);
  if (!client.ok()) return client.status();
  auto result = client.value()->Mutate(record);
  if (result.ok()) {
    // Read-your-writes: reads through this router now require the write's
    // sequence, whichever replica answers them.
    min_sequence_[shard] = std::max(min_sequence_[shard],
                                    result.value().sequence);
  }
  return result;
}

}  // namespace staq::net
