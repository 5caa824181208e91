// End-to-end distributed serving: a router over one primary (logging to
// its WAL) plus three snapshot+replay replicas serves a deterministic
// query/mutate mix over real TCP, one replica is killed and restarted
// mid-run (rebootstrapping from the snapshot and catching up from the
// log), and every single response is bit-identical to an in-process
// oracle AqServer fed the same mutations.
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/client.h"
#include "net/replica.h"
#include "net/router.h"
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
using net_testing::FastSsrRequest;

std::string TempPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "staq_e2e_" + name;
  fs::remove_all(path);
  return path;
}

std::unique_ptr<Replica> StartReplica(const std::string& snapshot,
                                      const std::string& wal_dir,
                                      uint16_t port = 0) {
  Replica::Options options;
  options.snapshot_path = snapshot;
  options.wal_dir = wal_dir;
  options.serve.num_threads = 2;
  options.tcp.port = port;
  auto replica =
      Replica::Start(testing::TinyCity(), gtfs::WeekdayAmPeak(), options);
  EXPECT_TRUE(replica.ok()) << replica.status();
  return replica.ok() ? std::move(replica).value() : nullptr;
}

TEST(DistributedE2eTest, RouterOverPrimaryAndThreeReplicasMatchesTheOracle) {
  // The oracle: a plain in-process AqServer fed the identical mutation
  // sequence. POI id assignment is deterministic, so its ids — and its
  // answers — are exactly what the distributed tier must produce.
  serve::AqServer oracle(testing::TinyCity(), gtfs::WeekdayAmPeak());
  const geo::Point centre = oracle.base_city().Centre();
  const geo::BBox& extent = oracle.base_city().extent;
  const geo::Point corner{extent.min_x, extent.min_y};

  // The primary: same city, logging every mutation to the shared WAL.
  serve::AqServer::Options primary_options;
  primary_options.num_threads = 2;
  serve::AqServer primary_server(testing::TinyCity(), gtfs::WeekdayAmPeak(),
                                 primary_options);
  const std::string wal_dir = TempPath("wal");
  auto wal = wal::MutationWal::Open(wal_dir);
  ASSERT_TRUE(wal.ok()) << wal.status();
  ASSERT_TRUE(primary_server.AttachWal(wal.value().get()).ok());
  AqTcpServer primary_tcp(&primary_server, AqTcpServer::Options());
  ASSERT_TRUE(primary_tcp.Start().ok());

  // Three replicas bootstrapped from the primary's sequence-0 snapshot.
  const std::string snapshot = TempPath("snapshot");
  ASSERT_TRUE(primary_server.ExportSnapshot(snapshot).ok());
  std::vector<std::unique_ptr<Replica>> replicas;
  for (int i = 0; i < 3; ++i) {
    replicas.push_back(StartReplica(snapshot, wal_dir));
    ASSERT_NE(replicas.back(), nullptr);
  }

  // max_attempts covers every backend, so a killed replica plus a couple
  // of behind-the-floor ones can never exhaust a read's budget.
  std::vector<Backend> backends{{"127.0.0.1", primary_tcp.port()}};
  for (const auto& replica : replicas) {
    backends.push_back(Backend{"127.0.0.1", replica->port()});
  }
  QueryRouter::Options router_options;
  router_options.max_attempts = static_cast<int>(backends.size());
  QueryRouter router({backends}, router_options);
  const ShardKey key{"covely", "am-peak"};

  // The deterministic mix: queries alternating category and path, with a
  // mutation every third step. POI edits first, then the five disruption
  // kinds — so the restarted replica replays timetable mutations too.
  // Every mutation is mirrored into the oracle; every query is checked
  // against it bit for bit.
  const std::vector<wal::MutationRecord> script = {
      wal::MutationRecord::AddPoi(0, synth::PoiCategory::kSchool, corner, 0),
      wal::MutationRecord::AddPoi(0, synth::PoiCategory::kHospital, centre, 0),
      wal::MutationRecord::RemovePoi(0, 0),  // removes the school added above
      wal::MutationRecord::SetInterval(0, gtfs::WeekdayPmPeak()),
      wal::MutationRecord::AddPoi(0, synth::PoiCategory::kJobCenter, centre, 0),
      wal::MutationRecord::SetInterval(0, gtfs::WeekdayAmPeak()),
      wal::MutationRecord::SuspendRoute(0, 0),
      wal::MutationRecord::CloseStop(
          0, testing::StopServedOutsideRoute(oracle.base_city().feed, 0)),
      wal::MutationRecord::ScaleHeadway(0, wal::kAllTargets, 2),
      wal::MutationRecord::SetFare(0, wal::kAllTargets, 4.25),
      wal::MutationRecord::ScaleWalkSpeed(0, 0.5),
  };
  size_t next_mutation = 0;
  uint32_t first_added_id = 0;
  uint64_t expected_sequence = 0;
  const uint16_t killed_port = replicas[0]->port();

  for (int step = 0; step < 36; ++step) {
    if (step == 11) {
      // Kill replica 0 mid-run: its connections die, the router fails
      // over, and nobody gets a wrong (or torn) answer.
      replicas[0]->Stop();
      replicas[0].reset();
    }
    if (step == 17) {
      // Restart it on the same port as a fresh object: bootstrap from the
      // original snapshot again, catch up from the WAL alone.
      replicas[0] = StartReplica(snapshot, wal_dir, killed_port);
      ASSERT_NE(replicas[0], nullptr);
      ASSERT_TRUE(
          replicas[0]->CatchUp(expected_sequence, /*timeout_s=*/20.0).ok());
    }

    if (step % 3 == 2 && next_mutation < script.size()) {
      wal::MutationRecord mutation = script[next_mutation++];
      if (mutation.type == wal::MutationType::kRemovePoi) {
        mutation.poi_id = first_added_id;
      }
      auto remote = router.Mutate(key, mutation);
      auto local = oracle.Mutate(mutation);
      ASSERT_TRUE(remote.ok()) << "step " << step << ": " << remote.status();
      ASSERT_TRUE(local.ok()) << "step " << step << ": " << local.status();
      ++expected_sequence;
      EXPECT_EQ(remote.value().sequence, expected_sequence) << "step " << step;
      // The distributed tier assigned the same POI id the oracle did —
      // the invariant that makes replay (and this whole test) line up.
      EXPECT_EQ(remote.value().report.poi_id, local.value().poi_id)
          << "step " << step;
      if (mutation.type == wal::MutationType::kAddPoi &&
          first_added_id == 0) {
        first_added_id = remote.value().report.poi_id;
      }
    } else {
      serve::AqRequest request =
          (step % 2 == 0) ? FastExactRequest(synth::PoiCategory::kSchool)
                          : FastExactRequest(synth::PoiCategory::kHospital);
      if (step % 5 == 0) request = FastSsrRequest();
      auto remote = router.Query(key, request);
      ASSERT_TRUE(remote.ok()) << "step " << step << ": " << remote.status();
      EXPECT_GE(remote.value().sequence, expected_sequence) << "step " << step;
      auto golden = oracle.QueryUncached(request);
      ASSERT_TRUE(golden.ok()) << golden.status();
      ExpectSameAnswer(remote.value().result, golden.value());
    }
  }

  ASSERT_EQ(next_mutation, script.size());  // the whole script ran
  EXPECT_EQ(primary_server.sequence(), expected_sequence);
  // The kill cost at least one failover, never a wrong answer.
  EXPECT_GE(router.stats().failovers, 1u);

  // The restarted replica independently reaches the primary's state: a
  // direct read pinned to the final sequence is bit-identical too.
  ASSERT_TRUE(
      replicas[0]->CatchUp(expected_sequence, /*timeout_s=*/20.0).ok());
  EXPECT_FALSE(replicas[0]->diverged());
  auto direct = AqClient::Connect("127.0.0.1", replicas[0]->port());
  ASSERT_TRUE(direct.ok()) << direct.status();
  // JT plus generalized cost: the fare disruption only shows in the latter.
  serve::AqRequest gac = FastExactRequest();
  gac.options.cost = core::CostKind::kGeneralizedCost;
  for (const serve::AqRequest& request : {FastExactRequest(), gac}) {
    auto pinned = direct.value().Query(request, expected_sequence);
    ASSERT_TRUE(pinned.ok()) << pinned.status();
    auto golden = oracle.QueryUncached(request);
    ASSERT_TRUE(golden.ok());
    ExpectSameAnswer(pinned.value().result, golden.value());
  }

  for (auto& replica : replicas) replica->Stop();
  primary_tcp.Stop();
}

}  // namespace
}  // namespace staq::net
