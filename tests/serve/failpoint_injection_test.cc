// Deterministic fault injection against the serve subsystem.
//
// Every failpoint site registered in production code gets at least one test
// here that trips it and asserts graceful degradation: a clean Status (never
// an escaped exception), no hung ticket, mutation atomicity (the store stays
// at the previous epoch with its label states intact), and a server that
// keeps answering correctly afterwards.
//
// The kBlock action doubles as a determinism fixture: parking a worker
// inside a site turns "the worker happens to be busy" — normally a race —
// into an explicit, observable state, which is what makes the virtual-clock
// deadline tests and the shutdown test schedule-independent.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/replica.h"
#include "serve/server.h"
#include "testing/test_city.h"
#include "util/clock.h"
#include "util/failpoint.h"
#include "wal/wal.h"

#if defined(STAQ_FAILPOINTS) && STAQ_FAILPOINTS

namespace staq::serve {
namespace {

using util::FailPointConfig;
using util::FailPoints;

AqRequest FastExactRequest(
    synth::PoiCategory category = synth::PoiCategory::kSchool) {
  AqRequest request;
  request.category = category;
  request.options.exact = true;
  request.options.gravity.sample_rate_per_hour = 4;
  request.options.gravity.keep_scale = 2.0;
  request.options.seed = 3;
  return request;
}

void ExpectSameAnswer(const core::AccessQueryResult& a,
                      const core::AccessQueryResult& b) {
  ASSERT_EQ(a.mac.size(), b.mac.size());
  for (size_t z = 0; z < a.mac.size(); ++z) {
    EXPECT_EQ(a.mac[z], b.mac[z]) << "zone " << z;
    EXPECT_EQ(a.acsd[z], b.acsd[z]) << "zone " << z;
  }
  EXPECT_EQ(a.mean_mac, b.mean_mac);
  EXPECT_EQ(a.mean_acsd, b.mean_acsd);
  EXPECT_EQ(a.gravity_trips, b.gravity_trips);
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  FaultInjectionTest() {
    AqServer::Options options;
    options.num_threads = 2;
    server_ = std::make_unique<AqServer>(testing::TinyCity(),
                                         gtfs::WeekdayAmPeak(), options);
  }
  ~FaultInjectionTest() override { FailPoints::DisarmAll(); }

  std::unique_ptr<AqServer> server_;
};

// --- serve.scenario.build_label_state --------------------------------------

TEST_F(FaultInjectionTest, LabelStateBuildFailureDegradesAndDoesNotPoison) {
  FailPoints::Arm("serve.scenario.build_label_state",
                  FailPointConfig::ThrowOnce("simulated engine fault"));
  auto failed = server_->Query(FastExactRequest());
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), util::StatusCode::kInternal);
  EXPECT_GE(server_->stats().failed, 1u);

  // The memo key is not poisoned: the retry rebuilds from scratch and the
  // answer equals the uncached golden.
  auto retry = server_->Query(FastExactRequest());
  ASSERT_TRUE(retry.ok()) << retry.status();
  auto golden = server_->QueryUncached(FastExactRequest());
  ASSERT_TRUE(golden.ok());
  ExpectSameAnswer(retry.value(), golden.value());
}

TEST_F(FaultInjectionTest, BuildFailureFailsEveryConcurrentWaiterCleanly) {
  // The first arrival builds; concurrent waiters on the same memo entry
  // must all observe the failure as a clean Status, not a hang.
  FailPoints::Arm("serve.scenario.build_label_state",
                  FailPointConfig::ThrowOnce());
  std::vector<AqTicket> tickets;
  for (int i = 0; i < 4; ++i) {
    tickets.push_back(server_->Submit(FastExactRequest()));
  }
  int failed = 0;
  for (AqTicket& ticket : tickets) {
    auto result = ticket.Get();  // must resolve — never block forever
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), util::StatusCode::kInternal);
      ++failed;
    }
  }
  // At least the builder itself failed; tickets that arrived after the memo
  // entry was erased may have rebuilt successfully.
  EXPECT_GE(failed, 1);
  EXPECT_TRUE(server_->Query(FastExactRequest()).ok());
}

// --- serve.scenario.patch_add / patch_remove / relabel ----------------------

TEST_F(FaultInjectionTest, PatchAddFailureRollsTheMutationBack) {
  auto before = server_->Query(FastExactRequest());  // materialise the state
  ASSERT_TRUE(before.ok());

  FailPoints::Arm("serve.scenario.patch_add", FailPointConfig::Throw());
  auto report = server_->AddPoi(synth::PoiCategory::kSchool,
                                server_->base_city().Centre());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), util::StatusCode::kInternal);
  EXPECT_EQ(server_->epoch(), 0u);  // the failed epoch was never installed
  FailPoints::Disarm("serve.scenario.patch_add");

  // The previous epoch's label state is intact, and the mutation works once
  // the fault clears.
  auto after = server_->Query(FastExactRequest());
  ASSERT_TRUE(after.ok());
  ExpectSameAnswer(after.value(), before.value());
  auto retry = server_->AddPoi(synth::PoiCategory::kSchool,
                               server_->base_city().Centre());
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_EQ(retry.value().epoch, 1u);
}

TEST_F(FaultInjectionTest, PatchRemoveFailureRollsTheMutationBack) {
  auto before = server_->Query(FastExactRequest());
  ASSERT_TRUE(before.ok());
  uint32_t school_id = 0;
  bool found = false;
  for (const synth::Poi& poi : server_->Snapshot()->pois()) {
    if (poi.category == synth::PoiCategory::kSchool) {
      school_id = poi.id;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);

  FailPoints::Arm("serve.scenario.patch_remove", FailPointConfig::Throw());
  auto report = server_->RemovePoi(school_id);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), util::StatusCode::kInternal);
  EXPECT_EQ(server_->epoch(), 0u);
  FailPoints::Disarm("serve.scenario.patch_remove");

  auto unchanged = server_->Query(FastExactRequest());
  ASSERT_TRUE(unchanged.ok());
  ExpectSameAnswer(unchanged.value(), before.value());
  ASSERT_TRUE(server_->RemovePoi(school_id).ok());
  EXPECT_EQ(server_->epoch(), 1u);
}

TEST_F(FaultInjectionTest, FailedAddPoiDoesNotBurnTheLoggedPoiId) {
  // A logging primary: an AddPoi that fails after drafting must not use up
  // the id it drafted, or the next logged AddPoi skips one and every
  // replica replaying the log diverges on it.
  const std::string dir = ::testing::TempDir() + "staq_fp_add_poi_id_wal";
  std::filesystem::remove_all(dir);
  auto wal = wal::MutationWal::Open(dir);
  ASSERT_TRUE(wal.ok()) << wal.status();
  ASSERT_TRUE(server_->AttachWal(wal.value().get()).ok());
  ASSERT_TRUE(server_->Query(FastExactRequest()).ok());  // a school state

  uint32_t attempted = 0;
  for (const synth::Poi& poi : server_->Snapshot()->pois()) {
    attempted = std::max(attempted, poi.id + 1);
  }
  FailPoints::Arm("serve.scenario.patch_add", FailPointConfig::ThrowOnce());
  ASSERT_FALSE(server_->AddPoi(synth::PoiCategory::kSchool,
                               server_->base_city().Centre())
                   .ok());
  auto added = server_->AddPoi(synth::PoiCategory::kSchool,
                               server_->base_city().Centre());
  ASSERT_TRUE(added.ok()) << added.status();
  EXPECT_EQ(added.value().poi_id, attempted);
  ASSERT_TRUE(server_->AttachWal(nullptr).ok());

  auto log = wal::ReadLog(dir);
  ASSERT_TRUE(log.ok()) << log.status();
  ASSERT_EQ(log.value().records.size(), 1u);
  EXPECT_EQ(log.value().records[0].poi_id, attempted);

  AqServer::Options options;
  options.num_threads = 2;
  AqServer replica(testing::TinyCity(), gtfs::WeekdayAmPeak(), options);
  util::Status replayed = net::ReplayLog(&replica, dir);
  ASSERT_TRUE(replayed.ok()) << replayed;
  EXPECT_EQ(replica.sequence(), server_->sequence());
  auto primary_answer = server_->Query(FastExactRequest());
  auto replica_answer = replica.Query(FastExactRequest());
  ASSERT_TRUE(primary_answer.ok()) << primary_answer.status();
  ASSERT_TRUE(replica_answer.ok()) << replica_answer.status();
  ExpectSameAnswer(replica_answer.value(), primary_answer.value());
}

TEST_F(FaultInjectionTest, RelabelFailureAbortsBeforeInstall) {
  auto before = server_->Query(FastExactRequest());
  ASSERT_TRUE(before.ok());

  FailPoints::Arm("serve.scenario.relabel", FailPointConfig::Throw());
  auto report = server_->AddPoi(synth::PoiCategory::kSchool,
                                server_->base_city().Centre());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), util::StatusCode::kInternal);
  EXPECT_EQ(server_->epoch(), 0u);
  EXPECT_EQ(server_->stats().mutations, 0u);
  FailPoints::Disarm("serve.scenario.relabel");

  // Only the un-installed copy was damaged; the published state still
  // answers bit-identically.
  auto after = server_->Query(FastExactRequest());
  ASSERT_TRUE(after.ok());
  ExpectSameAnswer(after.value(), before.value());
}

// --- serve.scenario.patch_network -------------------------------------------

TEST_F(FaultInjectionTest, NetworkPatchFailureRollsEveryDisruptionBack) {
  auto before = server_->Query(FastExactRequest());  // materialise the state
  ASSERT_TRUE(before.ok());

  // Every disruption kind funnels through the network-patch site; each must
  // degrade to a clean kInternal with the old epoch (and its network) still
  // installed and serving.
  FailPoints::Arm("serve.scenario.patch_network", FailPointConfig::Throw());
  const std::vector<util::Result<ScenarioStore::MutationReport>> attempts = {
      server_->SuspendRoute(0),
      server_->CloseStop(0),
      server_->ScaleHeadway(scenario::kAllRoutes, 2),
      server_->SetFare(scenario::kAllRoutes, 4.25),
      server_->ScaleWalkSpeed(0.5),
  };
  for (size_t i = 0; i < attempts.size(); ++i) {
    ASSERT_FALSE(attempts[i].ok()) << "disruption " << i;
    EXPECT_EQ(attempts[i].status().code(), util::StatusCode::kInternal)
        << "disruption " << i;
  }
  EXPECT_EQ(server_->epoch(), 0u);
  EXPECT_EQ(server_->Snapshot()->network_version(), 0u);
  FailPoints::Disarm("serve.scenario.patch_network");

  // The surviving epoch answers bit-identically, and the mutation works
  // once the fault clears.
  auto after = server_->Query(FastExactRequest());
  ASSERT_TRUE(after.ok());
  ExpectSameAnswer(after.value(), before.value());
  auto retry = server_->SuspendRoute(0);
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_EQ(retry.value().epoch, 1u);
  EXPECT_EQ(server_->Snapshot()->network_version(), 1u);
}

TEST_F(FaultInjectionTest, TransientNetworkPatchFaultRecoversOnRetry) {
  const double base_speed =
      server_->Snapshot()->router_options().walk.speed_mps;

  FailPoints::Arm("serve.scenario.patch_network",
                  FailPointConfig::ThrowOnce("transient patch fault"));
  ASSERT_FALSE(server_->ScaleWalkSpeed(0.5).ok());
  EXPECT_EQ(server_->Snapshot()->router_options().walk.speed_mps, base_speed);

  auto retry = server_->ScaleWalkSpeed(0.5);  // the once-fault is consumed
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_EQ(server_->Snapshot()->router_options().walk.speed_mps,
            base_speed * 0.5);
}

// --- serve.cache.put / serve.cache.evict ------------------------------------

TEST_F(FaultInjectionTest, CachePutFailureStillServesTheAnswer) {
  auto golden = server_->QueryUncached(FastExactRequest());
  ASSERT_TRUE(golden.ok());

  FailPoints::Arm("serve.cache.put", FailPointConfig::Throw("cache down"));
  auto first = server_->Query(FastExactRequest());
  ASSERT_TRUE(first.ok()) << first.status();  // Put failure is tolerated
  ExpectSameAnswer(first.value(), golden.value());
  // Nothing was cached: the repeat recomputes instead of hitting.
  auto repeat = server_->Query(FastExactRequest());
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(server_->stats().cache_hits, 0u);
  FailPoints::Disarm("serve.cache.put");

  ASSERT_TRUE(server_->Query(FastExactRequest()).ok());  // now cached...
  ASSERT_TRUE(server_->Query(FastExactRequest()).ok());
  EXPECT_GE(server_->stats().cache_hits, 1u);  // ...and served from cache
}

TEST_F(FaultInjectionTest, CacheEvictFailureStillServesTheAnswer) {
  AqServer::Options options;
  options.num_threads = 2;
  options.cache.shards = 1;
  options.cache.entries_per_shard = 1;  // the 2nd distinct key must evict
  AqServer tiny(testing::TinyCity(), gtfs::WeekdayAmPeak(), options);

  ASSERT_TRUE(tiny.Query(FastExactRequest(synth::PoiCategory::kSchool)).ok());
  FailPoints::Arm("serve.cache.evict", FailPointConfig::Throw());
  auto second = tiny.Query(FastExactRequest(synth::PoiCategory::kVaxCenter));
  ASSERT_TRUE(second.ok()) << second.status();
  auto golden = tiny.QueryUncached(FastExactRequest(synth::PoiCategory::kVaxCenter));
  ASSERT_TRUE(golden.ok());
  ExpectSameAnswer(second.value(), golden.value());
  FailPoints::Disarm("serve.cache.evict");

  // The over-capacity shard self-heals on the next successful insert. A
  // distinct seed makes a distinct cache key, so this query must Put (a
  // repeat of the cached keys would hit and never reach the evictor).
  AqRequest third = FastExactRequest(synth::PoiCategory::kSchool);
  third.options.seed = 4;
  ASSERT_TRUE(tiny.Query(third).ok());
  EXPECT_GE(tiny.stats().cache_evictions, 2u);
}

// --- util.thread_pool.submit ------------------------------------------------

TEST_F(FaultInjectionTest, SubmissionFailureResolvesTheTicketCleanly) {
  FailPoints::Arm("util.thread_pool.submit",
                  FailPointConfig::Throw("queue broken"));
  AqTicket ticket = server_->Submit(FastExactRequest());
  ASSERT_TRUE(ticket.valid());
  auto result = ticket.Get();  // must resolve — the promise is fulfilled
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInternal);
  EXPECT_GE(server_->stats().failed, 1u);
  FailPoints::Disarm("util.thread_pool.submit");

  auto recovered = server_->Query(FastExactRequest());
  EXPECT_TRUE(recovered.ok()) << recovered.status();
}

/// A batch whose exact form is two (category, seed) groups of three cost
/// members each.
AqBatchRequest SweepBatch(bool exact) {
  AqBatchRequest batch;
  batch.request = FastExactRequest();
  batch.request.options.exact = exact;
  batch.request.options.beta = 0.2;
  batch.request.options.model = ml::ModelKind::kOls;
  batch.seeds = {3, 9};
  if (exact) {
    router::GacWeights wait_heavy;
    wait_heavy.lambda_wt = 3.5;
    batch.cost_members = {
        {core::CostKind::kJourneyTime, router::GacWeights{}},
        {core::CostKind::kGeneralizedCost, router::GacWeights{}},
        {core::CostKind::kGeneralizedCost, wait_heavy},
    };
  }
  return batch;
}

TEST_F(FaultInjectionTest, BatchSubmissionFailureResolvesEveryMember) {
  // SSR members are single tasks and exact members form (category, seed)
  // groups; an enqueue failure must resolve every member of both shapes.
  FailPoints::Arm("util.thread_pool.submit",
                  FailPointConfig::Throw("queue broken"));
  std::vector<AqTicket> ssr = server_->SubmitBatch(SweepBatch(false));
  std::vector<AqTicket> exact = server_->SubmitBatch(SweepBatch(true));
  ASSERT_EQ(ssr.size(), 2u);
  ASSERT_EQ(exact.size(), 6u);
  for (std::vector<AqTicket>* tickets : {&ssr, &exact}) {
    for (AqTicket& ticket : *tickets) {
      auto result = ticket.Get();  // must resolve — never hang
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), util::StatusCode::kInternal);
      EXPECT_NE(result.status().message().find("submission"),
                std::string::npos)
          << result.status();
    }
  }
  ServerStats stats = server_->stats();
  EXPECT_EQ(stats.submitted, 8u);
  EXPECT_EQ(stats.failed, 8u);
  EXPECT_EQ(stats.completed, 0u);
  FailPoints::Disarm("util.thread_pool.submit");

  for (const auto& result : server_->QueryBatch(SweepBatch(true))) {
    EXPECT_TRUE(result.ok()) << result.status();
  }
}

TEST_F(FaultInjectionTest, BatchGroupDeadlineExpiresBeforeItStarts) {
  util::VirtualClock clock;
  AqServer::Options options;
  options.num_threads = 1;
  options.clock = &clock;
  AqServer single(testing::TinyCity(), gtfs::WeekdayAmPeak(), options);

  // Park the only worker so the batch's groups stay queued.
  FailPoints::Arm("serve.scenario.build_label_state",
                  FailPointConfig::Block());
  AqTicket busy = single.Submit(FastExactRequest(synth::PoiCategory::kVaxCenter));
  while (FailPoints::BlockedCount("serve.scenario.build_label_state") == 0) {
    std::this_thread::yield();
  }
  AqBatchRequest batch = SweepBatch(true);
  batch.request.deadline_s = 5.0;
  std::vector<AqTicket> tickets = single.SubmitBatch(batch);
  clock.AdvanceSeconds(10.0);  // expires while both groups are queued
  FailPoints::Disarm("serve.scenario.build_label_state");

  ASSERT_EQ(tickets.size(), 6u);
  for (AqTicket& ticket : tickets) {
    auto result = ticket.Get();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kDeadlineExceeded);
  }
  EXPECT_TRUE(busy.Get().ok());
  ServerStats stats = single.stats();
  EXPECT_EQ(stats.deadline_exceeded, 6u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST_F(FaultInjectionTest, BatchGroupCachePutFailureStillServesEveryMember) {
  AqBatchRequest batch = SweepBatch(true);
  std::vector<AqRequest> derived = ExpandBatch(batch);
  FailPoints::Arm("serve.cache.put", FailPointConfig::Throw("cache down"));
  auto results = server_->QueryBatch(batch);
  FailPoints::Disarm("serve.cache.put");

  ASSERT_EQ(results.size(), derived.size());
  for (size_t i = 0; i < derived.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << "member " << i << ": "
                                 << results[i].status();
    auto golden = server_->QueryUncached(derived[i]);
    ASSERT_TRUE(golden.ok()) << golden.status();
    ExpectSameAnswer(results[i].value(), golden.value());
    EXPECT_EQ(results[i].value().classes, golden.value().classes);
    EXPECT_EQ(results[i].value().fairness, golden.value().fairness);
    EXPECT_EQ(results[i].value().spqs, golden.value().spqs);
  }
  EXPECT_EQ(server_->stats().completed, derived.size());
  // Nothing was cached: a repeated member recomputes.
  ASSERT_TRUE(server_->Query(derived.front()).ok());
  EXPECT_EQ(server_->stats().cache_hits, 0u);
}

// --- serve.ticket.cancel ----------------------------------------------------

TEST_F(FaultInjectionTest, CancelFailureLeavesTheRequestRunning) {
  FailPoints::Arm("serve.ticket.cancel", FailPointConfig::Throw());
  AqTicket ticket = server_->Submit(FastExactRequest());
  EXPECT_FALSE(ticket.TryCancel());  // the failure reads as "not cancelled"
  FailPoints::Disarm("serve.ticket.cancel");
  auto result = ticket.Get();  // and the request completes normally
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(server_->stats().cancelled, 0u);
}

// --- kBlock fixtures: deterministic deadline & shutdown ---------------------

TEST_F(FaultInjectionTest, DeadlineExpiryIsDeterministicOnTheVirtualClock) {
  util::VirtualClock clock;
  AqServer::Options options;
  options.num_threads = 1;
  options.clock = &clock;
  AqServer single(testing::TinyCity(), gtfs::WeekdayAmPeak(), options);

  // Park the only worker inside the label-state build: "the worker is busy"
  // is now an explicit state, not a race.
  FailPoints::Arm("serve.scenario.build_label_state",
                  FailPointConfig::Block());
  AqTicket busy = single.Submit(FastExactRequest());
  while (FailPoints::BlockedCount("serve.scenario.build_label_state") == 0) {
    std::this_thread::yield();
  }

  AqRequest doomed = FastExactRequest(synth::PoiCategory::kVaxCenter);
  doomed.deadline_s = 5.0;
  AqTicket ticket = single.Submit(doomed);
  EXPECT_EQ(ticket.epoch(), 0u);
  clock.AdvanceSeconds(10.0);  // the budget expires while it is queued
  FailPoints::Disarm("serve.scenario.build_label_state");

  auto result = ticket.Get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(single.stats().deadline_exceeded, 1u);
  EXPECT_TRUE(busy.Get().ok());
}

TEST_F(FaultInjectionTest, QueuedDeadlineSurvivorRunsWhenTimeDoesNotAdvance) {
  // Control experiment for the test above: same schedule, but virtual time
  // never moves, so the deadline must NOT fire.
  util::VirtualClock clock;
  AqServer::Options options;
  options.num_threads = 1;
  options.clock = &clock;
  AqServer single(testing::TinyCity(), gtfs::WeekdayAmPeak(), options);

  FailPoints::Arm("serve.scenario.build_label_state",
                  FailPointConfig::Block());
  AqTicket busy = single.Submit(FastExactRequest());
  while (FailPoints::BlockedCount("serve.scenario.build_label_state") == 0) {
    std::this_thread::yield();
  }
  AqRequest tight = FastExactRequest(synth::PoiCategory::kVaxCenter);
  tight.deadline_s = 1e-9;  // would flake under the real clock
  AqTicket ticket = single.Submit(tight);
  FailPoints::Disarm("serve.scenario.build_label_state");

  EXPECT_TRUE(busy.Get().ok());
  auto result = ticket.Get();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(single.stats().deadline_exceeded, 0u);
}

TEST_F(FaultInjectionTest, MutationDuringShutdownStaysEpochConsistent) {
  AqServer::Options options;
  options.num_threads = 1;
  auto server = std::make_unique<AqServer>(testing::TinyCity(),
                                           gtfs::WeekdayAmPeak(), options);
  auto golden = server->QueryUncached(FastExactRequest());
  ASSERT_TRUE(golden.ok());

  // Park the worker mid-build so the remaining submissions stay queued.
  FailPoints::Arm("serve.scenario.build_label_state",
                  FailPointConfig::Block());
  std::vector<AqTicket> tickets;
  for (int i = 0; i < 3; ++i) {
    tickets.push_back(server->Submit(FastExactRequest()));
  }
  while (FailPoints::BlockedCount("serve.scenario.build_label_state") == 0) {
    std::this_thread::yield();
  }

  // Mutate while queries are in flight and shutdown is imminent. The new
  // epoch must not leak into the queued requests' answers: they were
  // admitted under epoch 0.
  auto report = server->AddPoi(synth::PoiCategory::kSchool,
                               server->base_city().Centre());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report.value().epoch, 1u);

  std::atomic<bool> destroyed{false};
  std::thread destroyer([&] {
    server.reset();  // drains the queue: blocked until the site releases
    destroyed.store(true);
  });
  EXPECT_FALSE(destroyed.load());  // cannot finish while the worker is parked
  FailPoints::Disarm("serve.scenario.build_label_state");
  destroyer.join();
  EXPECT_TRUE(destroyed.load());

  for (AqTicket& ticket : tickets) {
    EXPECT_EQ(ticket.epoch(), 0u);
    auto result = ticket.Get();
    ASSERT_TRUE(result.ok()) << result.status();
    ExpectSameAnswer(result.value(), golden.value());  // epoch 0, not 1
  }
}

// --- catalog ----------------------------------------------------------------

TEST_F(FaultInjectionTest, EveryDocumentedSiteIsReachable) {
  // Drive each subsystem once, then check the registry saw every site the
  // DESIGN.md §8 catalog documents. Guards against sites silently compiled
  // out or renamed without the docs (and these tests) noticing.
  ASSERT_TRUE(server_->Query(FastExactRequest()).ok());
  auto report = server_->AddPoi(synth::PoiCategory::kSchool,
                                server_->base_city().Centre());
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(server_->RemovePoi(report.value().poi_id).ok());
  ASSERT_TRUE(server_->SuspendRoute(0).ok());
  AqTicket ticket = server_->Submit(FastExactRequest());
  (void)ticket.TryCancel();
  (void)ticket.Get();

  std::vector<std::string> sites = FailPoints::Registered();
  for (const char* expected :
       {"serve.scenario.build_label_state", "serve.scenario.patch_add",
        "serve.scenario.patch_remove", "serve.scenario.relabel",
        "serve.scenario.patch_network", "serve.cache.put",
        "util.thread_pool.submit", "serve.ticket.cancel"}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), expected), sites.end())
        << "site never evaluated: " << expected;
  }
}

}  // namespace
}  // namespace staq::serve

#else  // !STAQ_FAILPOINTS

namespace staq::serve {
namespace {

TEST(FaultInjectionTest, SkippedWithoutFailpointSites) {
  GTEST_SKIP() << "built with STAQ_FAILPOINTS=OFF; injection sites are "
                  "compiled out";
}

}  // namespace
}  // namespace staq::serve

#endif  // STAQ_FAILPOINTS
