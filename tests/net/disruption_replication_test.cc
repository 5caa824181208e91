// Disruption replication: all five disruption kinds flow primary -> WAL ->
// replica and land bit-identically (for both city families), travel over
// real TCP through AqClient, and ApplyMutation validates replayed records
// before touching the store.
#include <filesystem>
#include <memory>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "net/client.h"
#include "net/replica.h"
#include "net/server.h"
#include "net_testing.h"
#include "serve/server.h"
#include "testing/test_city.h"
#include "wal/wal.h"

namespace staq::net {
namespace {

namespace fs = std::filesystem;

using net_testing::ExpectSameAnswer;
using net_testing::FastExactRequest;

std::string TempPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "staq_disrepl_" + name;
  fs::remove_all(path);
  return path;
}

serve::AqRequest GacRequest() {
  serve::AqRequest request = FastExactRequest();
  request.options.cost = core::CostKind::kGeneralizedCost;
  return request;
}

/// Applies the canonical five-kind disruption chain to `server`. The stop
/// closure targets a stop still served after route 0 is withdrawn.
void ApplyAllKinds(serve::AqServer* server) {
  ASSERT_TRUE(server->SuspendRoute(0).ok());
  ASSERT_TRUE(
      server
          ->CloseStop(testing::StopServedOutsideRoute(
              server->base_city().feed, 0))
          .ok());
  ASSERT_TRUE(server->ScaleHeadway(scenario::kAllRoutes, 2).ok());
  ASSERT_TRUE(server->SetFare(scenario::kAllRoutes, 4.25).ok());
  ASSERT_TRUE(server->ScaleWalkSpeed(0.5).ok());
}

void RunDisruptionReplication(synth::City primary_city,
                              synth::City replica_city,
                              const std::string& name) {
  serve::AqServer::Options options;
  options.num_threads = 2;
  serve::AqServer primary(std::move(primary_city), gtfs::WeekdayAmPeak(),
                          options);
  const std::string wal_dir = TempPath(name);
  auto wal = wal::MutationWal::Open(wal_dir);
  ASSERT_TRUE(wal.ok()) << wal.status();
  ASSERT_TRUE(primary.AttachWal(wal.value().get()).ok());

  // Snapshot at sequence 0: every disruption must come from the log.
  const std::string snapshot = TempPath(name + "_snap");
  ASSERT_TRUE(primary.ExportSnapshot(snapshot).ok());

  ApplyAllKinds(&primary);
  ASSERT_EQ(primary.sequence(), 5u);
  ASSERT_TRUE(wal::VerifyLog(wal_dir).ok());

  serve::AqServer::Options replica_options;
  replica_options.num_threads = 2;
  replica_options.warm_start_path = snapshot;
  serve::AqServer replica(std::move(replica_city), gtfs::WeekdayAmPeak(),
                          replica_options);
  ASSERT_TRUE(replica.warm_started());
  auto replayed = ReplayLog(&replica, wal_dir);
  ASSERT_TRUE(replayed.ok()) << replayed;
  EXPECT_EQ(replica.sequence(), 5u);

  // Bit-identical answers on the disrupted network, JT and GAC (the fare
  // shock only shows in the latter, the walk rescale in both).
  for (const serve::AqRequest& request : {FastExactRequest(), GacRequest()}) {
    auto golden = primary.QueryUncached(request);
    ASSERT_TRUE(golden.ok()) << golden.status();
    auto answer = replica.QueryUncached(request);
    ASSERT_TRUE(answer.ok()) << answer.status();
    ExpectSameAnswer(answer.value(), golden.value());
  }
}

TEST(DisruptionReplicationTest, CovelyReplicaIsBitIdentical) {
  RunDisruptionReplication(testing::TinyCity(), testing::TinyCity(),
                           "covely");
}

TEST(DisruptionReplicationTest, BrindaleReplicaIsBitIdentical) {
  auto a = synth::BuildCity(synth::CitySpec::Brindale(0.03, 7));
  auto b = synth::BuildCity(synth::CitySpec::Brindale(0.03, 7));
  ASSERT_TRUE(a.ok() && b.ok());
  RunDisruptionReplication(std::move(a).value(), std::move(b).value(),
                           "brindale");
}

TEST(DisruptionReplicationTest, AllKindsTravelOverTcp) {
  // The oracle applies the chain in-process; the same chain goes through
  // AqClient::Mutate over loopback TCP.
  serve::AqServer oracle(testing::TinyCity(), gtfs::WeekdayAmPeak());
  ApplyAllKinds(&oracle);

  serve::AqServer server(testing::TinyCity(), gtfs::WeekdayAmPeak());
  AqTcpServer tcp(&server, AqTcpServer::Options());
  ASSERT_TRUE(tcp.Start().ok());
  auto client = AqClient::Connect("127.0.0.1", tcp.port());
  ASSERT_TRUE(client.ok()) << client.status();

  auto suspended =
      client.value().Mutate(wal::MutationRecord::SuspendRoute(0, 0));
  ASSERT_TRUE(suspended.ok()) << suspended.status();
  EXPECT_EQ(suspended.value().sequence, 1u);
  ASSERT_TRUE(client.value()
                  .Mutate(wal::MutationRecord::CloseStop(
                      0, testing::StopServedOutsideRoute(
                             server.base_city().feed, 0)))
                  .ok());
  ASSERT_TRUE(client.value()
                  .Mutate(wal::MutationRecord::ScaleHeadway(
                      0, wal::kAllTargets, 2))
                  .ok());
  ASSERT_TRUE(client.value()
                  .Mutate(wal::MutationRecord::SetFare(0, wal::kAllTargets,
                                                       4.25))
                  .ok());
  auto snowed =
      client.value().Mutate(wal::MutationRecord::ScaleWalkSpeed(0, 0.5));
  ASSERT_TRUE(snowed.ok()) << snowed.status();
  EXPECT_EQ(snowed.value().sequence, 5u);

  // Out-of-domain requests come back as clean remote errors.
  auto bad =
      client.value().Mutate(wal::MutationRecord::SuspendRoute(0, 100000));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(server.sequence(), 5u);

  auto remote = client.value().Query(FastExactRequest(), /*min_sequence=*/5);
  ASSERT_TRUE(remote.ok()) << remote.status();
  auto golden = oracle.QueryUncached(FastExactRequest());
  ASSERT_TRUE(golden.ok());
  ExpectSameAnswer(remote.value().result, golden.value());
  tcp.Stop();
}

TEST(DisruptionReplicationTest, ApplyMutationValidatesBeforeApplying) {
  serve::AqServer server(testing::TinyCity(), gtfs::WeekdayAmPeak());

  // A sequence gap is an aborted replay, not a fork.
  auto gap = server.ApplyMutation(wal::MutationRecord::SuspendRoute(2, 0));
  ASSERT_FALSE(gap.ok());
  EXPECT_EQ(gap.status().code(), util::StatusCode::kAborted);
  EXPECT_EQ(server.sequence(), 0u);

  // A well-sequenced record with an out-of-range target fails cleanly and
  // leaves the history position unchanged.
  auto bad =
      server.ApplyMutation(wal::MutationRecord::SuspendRoute(1, 100000));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(server.sequence(), 0u);
  EXPECT_EQ(server.Snapshot()->network_version(), 0u);

  // The valid record applies and advances the chain.
  auto good = server.ApplyMutation(wal::MutationRecord::SuspendRoute(1, 0));
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_EQ(server.sequence(), 1u);
  EXPECT_EQ(server.Snapshot()->network_version(), 1u);
}

}  // namespace
}  // namespace staq::net
