// Replication: a replica bootstrapped from the primary's snapshot plus a
// WAL replay answers bit-identically to the primary — for both city
// families — a live replica tails the log, divergence aborts application
// instead of forking history, and a restarting primary recovers through
// the same snapshot+replay path before re-attaching its WAL.
#include "net/replica.h"

#include <filesystem>
#include <memory>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "net/client.h"
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
  std::string path = ::testing::TempDir() + "staq_repl_" + name;
  fs::remove_all(path);
  return path;
}

synth::City BrindaleCity() {
  auto built = synth::BuildCity(synth::CitySpec::Brindale(0.03, 7));
  if (!built.ok()) std::abort();
  return std::move(built).value();
}

/// A logging primary: an AqServer with an attached WAL, the way the
/// distributed quickstart runs one.
struct Primary {
  Primary(synth::City city, const std::string& name)
      : wal_dir(TempPath(name)) {
    serve::AqServer::Options options;
    options.num_threads = 2;
    server = std::make_unique<serve::AqServer>(
        std::move(city), gtfs::WeekdayAmPeak(), options);
    auto opened = wal::MutationWal::Open(wal_dir);
    EXPECT_TRUE(opened.ok()) << opened.status();
    wal = std::move(opened).value();
    auto attached = server->AttachWal(wal.get());
    EXPECT_TRUE(attached.ok()) << attached;
  }

  std::string wal_dir;
  std::unique_ptr<serve::AqServer> server;
  std::unique_ptr<wal::MutationWal> wal;
};

/// The golden scenario: chained edits (later ones depend on the POI id an
/// earlier one assigned), a snapshot exported mid-chain, and a replica
/// that must land bit-identical to the primary after replaying the rest.
void RunGoldenReplication(synth::City city, const std::string& name) {
  Primary primary(std::move(city), name);
  const geo::Point centre = primary.server->base_city().Centre();
  const geo::BBox& extent = primary.server->base_city().extent;

  auto school = primary.server->AddPoi(synth::PoiCategory::kSchool,
                                       geo::Point{extent.min_x, extent.min_y});
  ASSERT_TRUE(school.ok()) << school.status();
  auto hospital =
      primary.server->AddPoi(synth::PoiCategory::kHospital, centre);
  ASSERT_TRUE(hospital.ok()) << hospital.status();

  // Snapshot at sequence 2; everything after must come from the log.
  const std::string snapshot = TempPath(name + "_snap");
  ASSERT_TRUE(primary.server->ExportSnapshot(snapshot).ok());

  // The chained half: removing the school only replays correctly if the
  // replica assigned it the identical id.
  auto removed = primary.server->RemovePoi(school.value().poi_id);
  ASSERT_TRUE(removed.ok()) << removed.status();
  auto switched = primary.server->SetInterval(gtfs::WeekdayPmPeak());
  ASSERT_TRUE(switched.ok()) << switched.status();
  auto park = primary.server->AddPoi(synth::PoiCategory::kJobCenter, centre);
  ASSERT_TRUE(park.ok()) << park.status();
  ASSERT_EQ(primary.server->sequence(), 5u);

  // Bootstrap: warm start from the snapshot, then replay the tail.
  serve::AqServer::Options options;
  options.num_threads = 2;
  options.warm_start_path = snapshot;
  serve::AqServer replica(primary.server->base_city(), gtfs::WeekdayAmPeak(),
                          options);
  ASSERT_TRUE(replica.warm_started());
  EXPECT_EQ(replica.sequence(), 2u);  // the snapshot's source sequence
  auto replayed = ReplayLog(&replica, primary.wal_dir);
  ASSERT_TRUE(replayed.ok()) << replayed;
  EXPECT_EQ(replica.sequence(), 5u);
  EXPECT_EQ(replica.epoch(), 3u);  // local epochs restart per process

  // Bit-identical answers on both query paths, for two categories.
  for (synth::PoiCategory category :
       {synth::PoiCategory::kSchool, synth::PoiCategory::kHospital}) {
    auto golden = primary.server->QueryUncached(FastExactRequest(category));
    ASSERT_TRUE(golden.ok()) << golden.status();
    auto answer = replica.QueryUncached(FastExactRequest(category));
    ASSERT_TRUE(answer.ok()) << answer.status();
    ExpectSameAnswer(answer.value(), golden.value());
  }
  auto golden_ssr = primary.server->QueryUncached(FastSsrRequest());
  ASSERT_TRUE(golden_ssr.ok());
  auto answer_ssr = replica.QueryUncached(FastSsrRequest());
  ASSERT_TRUE(answer_ssr.ok());
  ExpectSameAnswer(answer_ssr.value(), golden_ssr.value());
}

TEST(ReplicationGoldenTest, CovelyReplicaIsBitIdentical) {
  RunGoldenReplication(testing::TinyCity(), "covely");
}

TEST(ReplicationGoldenTest, BrindaleReplicaIsBitIdentical) {
  RunGoldenReplication(BrindaleCity(), "brindale");
}

TEST(ReplicaTest, TailsThePrimaryAndServesConsistentReads) {
  Primary primary(testing::TinyCity(), "tail");
  const geo::Point centre = primary.server->base_city().Centre();
  ASSERT_TRUE(
      primary.server->AddPoi(synth::PoiCategory::kSchool, centre).ok());

  const std::string snapshot = TempPath("tail_snap");
  ASSERT_TRUE(primary.server->ExportSnapshot(snapshot).ok());

  Replica::Options options;
  options.snapshot_path = snapshot;
  options.wal_dir = primary.wal_dir;
  options.serve.num_threads = 2;
  auto replica = Replica::Start(primary.server->base_city(),
                                gtfs::WeekdayAmPeak(), options);
  ASSERT_TRUE(replica.ok()) << replica.status();
  EXPECT_EQ(replica.value()->sequence(), 1u);

  // Mutations after the replica started arrive via the tail thread.
  auto hospital =
      primary.server->AddPoi(synth::PoiCategory::kHospital, centre);
  ASSERT_TRUE(hospital.ok());
  ASSERT_TRUE(primary.server->SetInterval(gtfs::WeekdayPmPeak()).ok());
  ASSERT_EQ(primary.server->sequence(), 3u);
  ASSERT_TRUE(replica.value()->CatchUp(3, /*timeout_s=*/10.0).ok());
  EXPECT_FALSE(replica.value()->diverged());

  // Epoch-consistent remote reads: demanding the primary's sequence from
  // the caught-up replica succeeds, and the answer is the primary's bit
  // for bit. Mutations stay refused (the replica is forced read-only).
  auto client = AqClient::Connect("127.0.0.1", replica.value()->port());
  ASSERT_TRUE(client.ok()) << client.status();
  auto remote = client.value().Query(FastExactRequest(), /*min_sequence=*/3);
  ASSERT_TRUE(remote.ok()) << remote.status();
  EXPECT_GE(remote.value().sequence, 3u);
  auto golden = primary.server->QueryUncached(FastExactRequest());
  ASSERT_TRUE(golden.ok());
  ExpectSameAnswer(remote.value().result, golden.value());

  auto refused = client.value().Mutate(wal::MutationRecord::AddPoi(
      0, synth::PoiCategory::kSchool, geo::Point{0, 0}, 0));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), util::StatusCode::kFailedPrecondition);

  replica.value()->Stop();  // idempotent with ~Replica
}

TEST(ReplicaTest, RefusesToStartWithoutAUsableSnapshot) {
  Replica::Options options;
  options.wal_dir = TempPath("nosnap_wal");
  auto missing_path =
      Replica::Start(testing::TinyCity(), gtfs::WeekdayAmPeak(), options);
  ASSERT_FALSE(missing_path.ok());
  EXPECT_EQ(missing_path.status().code(),
            util::StatusCode::kInvalidArgument);

  // A snapshot that fails to load degrades the AqServer to a cold build —
  // which a replica must refuse to serve, not silently impersonate.
  options.snapshot_path = TempPath("nosnap_snapshot") + "/absent.staq";
  auto cold = Replica::Start(testing::TinyCity(), gtfs::WeekdayAmPeak(),
                             options);
  ASSERT_FALSE(cold.ok());
  EXPECT_EQ(cold.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(ReplicaTest, BootstrapDivergenceAbortsStart) {
  // A log whose AddPoi claims a POI id the deterministic assignment will
  // not produce: replaying it can only fork history, so Start must refuse.
  serve::AqServer probe(testing::TinyCity(), gtfs::WeekdayAmPeak());
  const geo::Point centre = probe.base_city().Centre();
  auto assigned = probe.AddPoi(synth::PoiCategory::kSchool, centre);
  ASSERT_TRUE(assigned.ok());

  serve::AqServer primary(testing::TinyCity(), gtfs::WeekdayAmPeak());
  const std::string snapshot = TempPath("diverge_snap");
  ASSERT_TRUE(primary.ExportSnapshot(snapshot).ok());

  const std::string wal_dir = TempPath("diverge_wal");
  {
    auto wal = wal::MutationWal::Open(wal_dir);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()
                    ->Append(wal::MutationRecord::AddPoi(
                        1, synth::PoiCategory::kSchool, centre,
                        assigned.value().poi_id + 7))
                    .ok());
  }

  Replica::Options options;
  options.snapshot_path = snapshot;
  options.wal_dir = wal_dir;
  auto replica = Replica::Start(testing::TinyCity(), gtfs::WeekdayAmPeak(),
                                options);
  ASSERT_FALSE(replica.ok());
  EXPECT_EQ(replica.status().code(), util::StatusCode::kAborted);
}

TEST(ApplyMutationTest, SequenceGapsAndIdMismatchesAreAborted) {
  serve::AqServer reference(testing::TinyCity(), gtfs::WeekdayAmPeak());
  const geo::Point centre = reference.base_city().Centre();
  auto assigned = reference.AddPoi(synth::PoiCategory::kSchool, centre);
  ASSERT_TRUE(assigned.ok());
  const uint32_t real_id = assigned.value().poi_id;

  serve::AqServer server(testing::TinyCity(), gtfs::WeekdayAmPeak());
  // Record #2 cannot extend a history at sequence 0.
  auto gap = server.ApplyMutation(wal::MutationRecord::AddPoi(
      2, synth::PoiCategory::kSchool, centre, real_id));
  ASSERT_FALSE(gap.ok());
  EXPECT_EQ(gap.status().code(), util::StatusCode::kAborted);
  EXPECT_EQ(server.sequence(), 0u);  // refused cleanly, nothing applied

  // Right sequence, wrong id: the local deterministic assignment disagrees
  // with the log, so applying would diverge silently everywhere.
  auto mismatch = server.ApplyMutation(wal::MutationRecord::AddPoi(
      1, synth::PoiCategory::kSchool, centre, real_id + 7));
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), util::StatusCode::kAborted);
  EXPECT_EQ(server.sequence(), 0u);

  // The well-formed record applies — and is not re-logged anywhere.
  auto applied = server.ApplyMutation(wal::MutationRecord::AddPoi(
      1, synth::PoiCategory::kSchool, centre, real_id));
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(applied.value().poi_id, real_id);
  EXPECT_EQ(server.sequence(), 1u);
}

/// One record of every kind, each at sequence 0 (and poi_id 0 for AddPoi):
/// what a client sends. RemovePoi's id is filled in once AddPoi assigned
/// it.
std::vector<wal::MutationRecord> EveryKind(const synth::City& city) {
  return {
      wal::MutationRecord::AddPoi(0, synth::PoiCategory::kSchool,
                                  geo::Point{city.extent.min_x,
                                             city.extent.min_y},
                                  0),
      wal::MutationRecord::RemovePoi(0, 0),
      wal::MutationRecord::SetInterval(0, gtfs::WeekdayPmPeak()),
      wal::MutationRecord::SuspendRoute(0, 0),
      wal::MutationRecord::CloseStop(
          0, testing::StopServedOutsideRoute(city.feed, 0)),
      wal::MutationRecord::ScaleHeadway(0, wal::kAllTargets, 2),
      wal::MutationRecord::SetFare(0, wal::kAllTargets, 4.25),
      wal::MutationRecord::ScaleWalkSpeed(0, 0.5),
  };
}

TEST(ApplyMutationTest, EveryKindLogsWhatItAppliedAndReplaysBitIdentically) {
  Primary primary(testing::TinyCity(), "every_kind");
  serve::AqServer replica(testing::TinyCity(), gtfs::WeekdayAmPeak());
  serve::AqRequest gac = FastExactRequest();
  gac.options.cost = core::CostKind::kGeneralizedCost;
  const std::vector<serve::AqRequest> requests = {FastExactRequest(), gac};

  uint32_t added_id = 0;
  uint64_t sequence = 0;
  for (wal::MutationRecord input : EveryKind(primary.server->base_city())) {
    const std::string kind = wal::MutationTypeName(input.type);
    if (input.type == wal::MutationType::kRemovePoi) input.poi_id = added_id;
    // Materialise the label states on both sides, so the mutation patches
    // them rather than dropping nothing.
    for (const serve::AqRequest& request : requests) {
      ASSERT_TRUE(primary.server->Query(request).ok()) << kind;
      ASSERT_TRUE(replica.Query(request).ok()) << kind;
    }

    auto report = primary.server->Mutate(input);
    ASSERT_TRUE(report.ok()) << kind << ": " << report.status();
    ++sequence;
    if (input.assigns_poi_id()) added_id = report.value().poi_id;

    // The log holds the input with only the sequence (and an AddPoi's POI
    // id) filled in by the primary.
    auto log = wal::ReadLog(primary.wal_dir);
    ASSERT_TRUE(log.ok()) << log.status();
    ASSERT_EQ(log.value().records.size(), sequence) << kind;
    const wal::MutationRecord& logged = log.value().records.back();
    wal::MutationRecord expected = input;
    expected.sequence = sequence;
    if (input.assigns_poi_id()) expected.poi_id = report.value().poi_id;
    EXPECT_TRUE(logged == expected) << kind << ": logged " << logged.ToString()
                                    << ", expected " << expected.ToString();

    // A replica refuses a record that skips one, and (AddPoi) one whose
    // POI id it would not assign, before touching anything.
    const uint64_t epoch = replica.epoch();
    const uint64_t mutations = replica.stats().mutations;
    std::vector<wal::MutationRecord> diverged = {logged};
    diverged[0].sequence = logged.sequence + 1;
    if (logged.assigns_poi_id()) {
      diverged.push_back(logged);
      diverged[1].poi_id = logged.poi_id + 1;
    }
    for (const wal::MutationRecord& bad : diverged) {
      auto refused = replica.ApplyMutation(bad);
      ASSERT_FALSE(refused.ok()) << kind << ": " << bad.ToString();
      EXPECT_EQ(refused.status().code(), util::StatusCode::kAborted) << kind;
      EXPECT_EQ(replica.epoch(), epoch) << kind;
      EXPECT_EQ(replica.stats().mutations, mutations) << kind;
    }

    // The logged record replays into the same scenario.
    auto replayed = replica.ApplyMutation(logged);
    ASSERT_TRUE(replayed.ok()) << kind << ": " << replayed.status();
    EXPECT_EQ(replayed.value().poi_id, report.value().poi_id) << kind;
    EXPECT_EQ(replica.sequence(), sequence) << kind;
    for (const serve::AqRequest& request : requests) {
      auto golden = primary.server->QueryUncached(request);
      ASSERT_TRUE(golden.ok()) << kind << ": " << golden.status();
      auto answer = replica.Query(request);
      ASSERT_TRUE(answer.ok()) << kind << ": " << answer.status();
      ExpectSameAnswer(answer.value(), golden.value());
    }
  }
  EXPECT_EQ(primary.wal->last_sequence(), sequence);
}

TEST(ApplyMutationTest, OutOfDomainRecordsAreRejectedWithoutAnEpoch) {
  serve::AqServer primary(testing::TinyCity(), gtfs::WeekdayAmPeak());
  serve::AqServer replica(testing::TinyCity(), gtfs::WeekdayAmPeak());
  const std::vector<wal::MutationRecord> out_of_domain = {
      wal::MutationRecord::ScaleWalkSpeed(1, 0.0),
      wal::MutationRecord::ScaleWalkSpeed(1, -1.0),
      wal::MutationRecord::ScaleHeadway(1, 0, 1),
      wal::MutationRecord::SetFare(1, wal::kAllTargets, -1.0),
      wal::MutationRecord::SuspendRoute(1, 100000),
      wal::MutationRecord::CloseStop(1, 100000),
  };
  for (const wal::MutationRecord& record : out_of_domain) {
    for (serve::AqServer* server : {&primary, &replica}) {
      auto result = server == &primary ? server->Mutate(record)
                                       : server->ApplyMutation(record);
      ASSERT_FALSE(result.ok()) << record.ToString();
      EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument)
          << record.ToString() << ": " << result.status();
      EXPECT_EQ(server->epoch(), 0u) << record.ToString();
      EXPECT_EQ(server->stats().mutations, 0u) << record.ToString();
    }
  }
}

TEST(PrimaryRestartTest, RecoversThroughSnapshotAndReplayThenReattaches) {
  std::string wal_dir;
  std::string snapshot = TempPath("restart_snap");
  {
    Primary primary(testing::TinyCity(), "restart");
    wal_dir = primary.wal_dir;
    const geo::Point centre = primary.server->base_city().Centre();
    ASSERT_TRUE(
        primary.server->AddPoi(synth::PoiCategory::kSchool, centre).ok());
    ASSERT_TRUE(primary.server->ExportSnapshot(snapshot).ok());
    ASSERT_TRUE(
        primary.server->AddPoi(synth::PoiCategory::kHospital, centre).ok());
    ASSERT_TRUE(primary.server->SetInterval(gtfs::WeekdayPmPeak()).ok());
  }  // crash: the process is gone; snapshot + WAL are what survives

  serve::AqServer::Options options;
  options.num_threads = 2;
  options.warm_start_path = snapshot;
  serve::AqServer server(testing::TinyCity(), gtfs::WeekdayAmPeak(), options);
  ASSERT_TRUE(server.warm_started());

  auto wal = wal::MutationWal::Open(wal_dir);
  ASSERT_TRUE(wal.ok()) << wal.status();

  // Attach before replay must be refused: the WAL is ahead of the server
  // and logging from here would fork the sequence chain.
  EXPECT_EQ(server.AttachWal(wal.value().get()).code(),
            util::StatusCode::kFailedPrecondition);

  ASSERT_TRUE(ReplayLog(&server, wal_dir).ok());
  EXPECT_EQ(server.sequence(), 3u);
  ASSERT_TRUE(server.AttachWal(wal.value().get()).ok());

  // The restarted primary logs onwards in the same chain.
  ASSERT_TRUE(
      server.AddPoi(synth::PoiCategory::kJobCenter, server.base_city().Centre())
          .ok());
  EXPECT_EQ(server.sequence(), 4u);
  EXPECT_EQ(wal.value()->last_sequence(), 4u);
  EXPECT_TRUE(wal::VerifyLog(wal_dir).ok());
}

}  // namespace
}  // namespace staq::net
